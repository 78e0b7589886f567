package vnet

import (
	"context"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
	"geoblock/internal/worldgen"
)

var testWorld = worldgen.Generate(worldgen.TestConfig())

func stackIn(t *testing.T, cc geo.CountryCode) *Stack {
	t.Helper()
	ip, err := testWorld.Geo.HostIP(cc, 7)
	if err != nil {
		t.Fatal(err)
	}
	return NewStack(testWorld, ip)
}

func browserGet(t *testing.T, s *Stack, url string, seed uint64) (*http.Response, []byte, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(WithSampleSeed(context.Background(), seed), "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("User-Agent", "Mozilla/5.0 (Macintosh) Firefox/61.0")
	req.Header.Set("Accept", "text/html")
	req.Header.Set("Accept-Language", "en-US")
	resp, err := (&http.Client{Transport: s}).Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

func plainDomain(t *testing.T) *worldgen.Domain {
	t.Helper()
	for _, d := range testWorld.Top10K() {
		if len(d.GeoRules) == 0 && !d.AirbnbStyle && !d.GAEHosted && !d.Unreachable &&
			!d.LuminatiRestricted && !d.RedirectLoop && d.ResidentialChallengeRate == 0 &&
			d.BotSensitivity < 0.1 && len(d.CensoredIn) == 0 {
			return d
		}
	}
	t.Fatal("no plain domain found")
	return nil
}

func TestFetchThroughRealHTTPClient(t *testing.T) {
	d := plainDomain(t)
	s := stackIn(t, "US")
	resp, body, err := browserGet(t, s, "http://"+d.Name+"/", 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if int64(len(body)) != resp.ContentLength && resp.ContentLength > 0 {
		// ContentLength reflects the final hop.
		t.Fatalf("body %d bytes, Content-Length %d", len(body), resp.ContentLength)
	}
	if !strings.Contains(string(body), d.Name) {
		t.Fatal("origin body missing domain name")
	}
}

func TestRedirectsFollowed(t *testing.T) {
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.RedirectHops == 2 && len(cand.GeoRules) == 0 && !cand.GAEHosted &&
			!cand.AirbnbStyle && len(cand.CensoredIn) == 0 && cand.ResidentialChallengeRate == 0 {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no 2-hop domain")
	}
	s := stackIn(t, "US")
	resp, _, err := browserGet(t, s, "http://"+d.Name+"/", 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Request.URL.String(); got != "https://www."+d.Name+"/" {
		t.Fatalf("final URL %q", got)
	}
}

func TestUnknownHostDNSError(t *testing.T) {
	s := stackIn(t, "US")
	_, _, err := browserGet(t, s, "http://no-such-host.invalid/", 1)
	if err == nil || !strings.Contains(err.Error(), "no such host") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnreachableTimesOut(t *testing.T) {
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.Unreachable {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no unreachable domain")
	}
	s := stackIn(t, "US")
	_, _, err := browserGet(t, s, "http://"+d.Name+"/", 1)
	if err == nil {
		t.Fatal("expected timeout")
	}
	var ne net.Error
	if !asNetError(err, &ne) || !ne.Timeout() {
		t.Fatalf("want net.Error timeout, got %v", err)
	}
}

func asNetError(err error, target *net.Error) bool {
	for err != nil {
		if ne, ok := err.(net.Error); ok {
			*target = ne
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestCensorshipBlockPage(t *testing.T) {
	// Find a domain censored with a block page somewhere.
	var d *worldgen.Domain
	var cc geo.CountryCode
	for _, cand := range testWorld.Top10K() {
		codes := make([]geo.CountryCode, 0, len(cand.CensoredIn))
		for c := range cand.CensoredIn {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		for _, c := range codes {
			dd := cand
			if mech := checkMech(dd, c); mech == "blockpage" && !cand.Unreachable {
				d, cc = cand, c
				break
			}
		}
		if d != nil {
			break
		}
	}
	if d == nil {
		t.Skip("no blockpage-censored domain")
	}
	s := stackIn(t, cc)
	resp, body, err := browserGet(t, s, "http://"+d.Name+"/", 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 403 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !blockpage.Matches(blockpage.Censorship, string(body)) {
		t.Fatal("expected the censorship page")
	}
}

func checkMech(d *worldgen.Domain, cc geo.CountryCode) string {
	s := NewStack(testWorld, 0)
	_ = s
	// Reuse the censor package through the stack indirectly: simpler to
	// call it via a tiny HTTP request would hide the mechanism, so this
	// helper duplicates the classification by probing.
	ip, err := testWorld.Geo.HostIP(cc, 7)
	if err != nil {
		return "none"
	}
	st := NewStack(testWorld, ip)
	req, _ := http.NewRequest("GET", "http://"+d.Name+"/", nil)
	resp, err := st.RoundTrip(req)
	if err != nil {
		return "error"
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if blockpage.Matches(blockpage.Censorship, string(b)) {
		return "blockpage"
	}
	return "other"
}

func TestSampleSeedDeterminism(t *testing.T) {
	d := plainDomain(t)
	s := stackIn(t, "FR")
	_, b1, err := browserGet(t, s, "http://"+d.Name+"/", 42)
	if err != nil {
		t.Fatal(err)
	}
	_, b2, err := browserGet(t, s, "http://"+d.Name+"/", 42)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("same seed must reproduce the same body")
	}
	_, b3, err := browserGet(t, s, "http://"+d.Name+"/", 43)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) == string(b3) {
		t.Fatal("different seeds should vary dynamic content")
	}
}

func TestHeadRequestSkipsBody(t *testing.T) {
	d := plainDomain(t)
	s := stackIn(t, "US")
	req, _ := http.NewRequest("HEAD", "https://www."+d.Name+"/", nil)
	resp, err := s.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength <= 0 {
		t.Fatal("HEAD should still advertise Content-Length")
	}
	b, _ := io.ReadAll(resp.Body)
	if len(b) != 0 {
		t.Fatal("HEAD must not carry a body")
	}
}

func TestContentLengthMatchesBody(t *testing.T) {
	d := plainDomain(t)
	s := stackIn(t, "JP")
	for seed := uint64(0); seed < 10; seed++ {
		resp, body, err := browserGet(t, s, "https://www."+d.Name+"/", seed)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if int(resp.ContentLength) != len(body) {
			t.Fatalf("seed %d: Content-Length %d but body %d bytes", seed, resp.ContentLength, len(body))
		}
	}
}

func TestRedirectLoopStops(t *testing.T) {
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.RedirectLoop {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no redirect-loop domain at this scale")
	}
	s := stackIn(t, "US")
	_, _, err := browserGet(t, s, "http://"+d.Name+"/a", 1)
	if err == nil || !strings.Contains(err.Error(), "redirects") {
		t.Fatalf("want redirect-limit error, got %v", err)
	}
}

func TestDNSResolver(t *testing.T) {
	r := &Resolver{World: testWorld}
	d := testWorld.Top10K()[0]
	if _, ok := r.LookupA(d.Name); !ok {
		t.Fatal("A lookup failed")
	}
	if _, ok := r.LookupA("www." + d.Name); !ok {
		t.Fatal("www A lookup failed")
	}
	if _, ok := r.LookupA("missing.invalid"); ok {
		t.Fatal("NXDOMAIN expected")
	}

	txts := r.LookupTXT(GoogleNetblockRoot)
	if len(txts) != 1 {
		t.Fatal("netblock root TXT missing")
	}
	includes, cidrs := ParseSPF(txts[0])
	if len(includes) != 4 || len(cidrs) != 0 {
		t.Fatalf("root record: %d includes, %d cidrs", len(includes), len(cidrs))
	}
	var all []geo.Range
	for _, inc := range includes {
		sub := r.LookupTXT(inc)
		if len(sub) != 1 {
			t.Fatalf("missing TXT for %s", inc)
		}
		_, subCIDRs := ParseSPF(sub[0])
		for _, c := range subCIDRs {
			rng, err := ParseCIDR(c)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, rng)
		}
	}
	want := worldgen.GAENetblocks()
	if len(all) != len(want) {
		t.Fatalf("netblock walk found %d blocks, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i] != (geo.Range{Lo: want[i].Lo, Hi: want[i].Hi}) {
			t.Fatalf("block %d mismatch: %+v vs %+v", i, all[i], want[i])
		}
	}
}

func TestParseCIDRErrors(t *testing.T) {
	for _, bad := range []string{"1.2.3.4", "a.b.c.d/16", "1.2.3.4/2", "1.2.3.4/40"} {
		if _, err := ParseCIDR(bad); err == nil {
			t.Errorf("ParseCIDR(%q) should fail", bad)
		}
	}
	r, err := ParseCIDR("10.0.0.0/16")
	if err != nil || r.Hi-r.Lo != 1<<16 {
		t.Fatalf("ParseCIDR(/16) = %+v, %v", r, err)
	}
}

func TestOpError(t *testing.T) {
	e := &OpError{Op: "dial", Host: "x.com", Msg: "i/o timeout", timeout: true}
	if !e.Timeout() || !e.Temporary() {
		t.Fatal("timeout flags wrong")
	}
	if !strings.Contains(e.Error(), "x.com") {
		t.Fatal("error text missing host")
	}
}
