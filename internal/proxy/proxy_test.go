package proxy

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"geoblock/internal/geo"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

var testWorld = worldgen.Generate(worldgen.TestConfig())
var testNet = NewNetwork(testWorld)

func TestNetworkCoverage(t *testing.T) {
	countries := testNet.Countries()
	if len(countries) < 170 {
		t.Fatalf("proxy mesh covers %d countries, want most of the world", len(countries))
	}
	for _, cc := range countries {
		if cc == "KP" {
			t.Fatal("North Korea must have no exits")
		}
	}
}

func TestExitInventory(t *testing.T) {
	exits := testNet.Exits("US")
	if len(exits) == 0 || len(exits) > maxExitsPerCountry {
		t.Fatalf("US inventory = %d", len(exits))
	}
	for _, e := range exits {
		if e.Reliability < 0.3 || e.Reliability > 1 {
			t.Fatalf("reliability %v out of range", e.Reliability)
		}
		if e.Claimed != "US" {
			t.Fatalf("claimed country %s", e.Claimed)
		}
	}
}

func TestMislocatedExitsExist(t *testing.T) {
	mislocated, crimea := 0, 0
	for _, cc := range testNet.Countries() {
		for _, e := range testNet.Exits(cc) {
			if e.Mislocated {
				mislocated++
				loc, ok := testWorld.Geo.Locate(e.IP)
				if !ok || loc.Country == e.Claimed {
					t.Fatalf("mislocated exit in %s still geolocates home", cc)
				}
			}
			if e.InCrimea {
				crimea++
				loc, _ := testWorld.Geo.Locate(e.IP)
				if loc.Region != geo.RegionCrimea {
					t.Fatal("Crimean exit outside Crimea range")
				}
			}
		}
	}
	if mislocated == 0 {
		t.Fatal("no mislocated exits; geolocation-error path untested")
	}
	if crimea == 0 {
		t.Fatal("no Crimean exits; region-granular blocking unmeasurable")
	}
}

func TestSessionNoExits(t *testing.T) {
	if _, err := testNet.NewSession("KP", 0); err == nil {
		t.Fatal("expected ErrNoExits for North Korea")
	}
}

func TestSessionRotation(t *testing.T) {
	s, err := testNet.NewSession("DE", 1)
	if err != nil {
		t.Fatal(err)
	}
	first := s.Exit()
	s.Rotate()
	if s.Exit() == first && len(testNet.Exits("DE")) > 1 {
		t.Fatal("rotation did not change exit")
	}
	if s.Used() != 0 {
		t.Fatal("rotation must reset use count")
	}
}

func TestVerify(t *testing.T) {
	s, err := testNet.NewSession("FR", 2)
	if err != nil {
		t.Fatal(err)
	}
	okSeen := false
	for seed := uint64(0); seed < 20; seed++ {
		ip, cc, err := s.Verify(seed)
		if err == nil {
			okSeen = true
			if cc != "FR" || ip != s.Exit().IP {
				t.Fatalf("verify returned %v/%s", ip, cc)
			}
		}
	}
	if !okSeen {
		t.Fatal("verify never succeeded")
	}
}

func doThrough(t *testing.T, s *Session, url string, seed uint64) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(vnet.WithSampleSeed(context.Background(), seed), "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("User-Agent", "Mozilla/5.0 Firefox/61.0")
	req.Header.Set("Accept", "text/html")
	req.Header.Set("Accept-Language", "en-US")
	return s.RoundTrip(req)
}

func TestRoundTripThroughExit(t *testing.T) {
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if len(cand.GeoRules) == 0 && !cand.Unreachable && !cand.LuminatiRestricted &&
			!cand.RedirectLoop && cand.RedirectHops == 0 && len(cand.CensoredIn) == 0 &&
			!cand.GAEHosted && !cand.AirbnbStyle && cand.ResidentialChallengeRate == 0 {
			d = cand
			break
		}
	}
	s, err := testNet.NewSession("GB", 3)
	if err != nil {
		t.Fatal(err)
	}
	var got *http.Response
	for seed := uint64(0); seed < 30 && got == nil; seed++ {
		resp, err := doThrough(t, s, "https://"+d.Name+"/", seed)
		if err != nil {
			s.Rotate()
			continue
		}
		got = resp
	}
	if got == nil {
		t.Fatal("request never succeeded through the mesh")
	}
	defer got.Body.Close()
	if got.StatusCode != 200 {
		t.Fatalf("status %d", got.StatusCode)
	}
	b, _ := io.ReadAll(got.Body)
	if len(b) == 0 {
		t.Fatal("empty body")
	}
	if s.Used() == 0 {
		t.Fatal("use counter did not advance")
	}
}

func TestLuminatiRestrictedDomain(t *testing.T) {
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.LuminatiRestricted {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no restricted domain at this scale")
	}
	s, err := testNet.NewSession("US", 4)
	if err != nil {
		t.Fatal(err)
	}
	// The platform refuses the site, whatever the spelling of its host.
	for _, host := range []string{d.Name, "WWW." + d.Name, strings.ToUpper(d.Name)} {
		resp, err := doThrough(t, s, "https://"+host+"/", 1)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("X-Luminati-Error") == "" {
			t.Fatalf("%s: expected X-Luminati-Error header", host)
		}
		if resp.StatusCode != 502 {
			t.Fatalf("%s: status %d", host, resp.StatusCode)
		}
	}
}

func TestDeterministicFailures(t *testing.T) {
	s1, _ := testNet.NewSession("IN", 7)
	s2, _ := testNet.NewSession("IN", 7)
	d := testWorld.Top10K()[5]
	for seed := uint64(0); seed < 10; seed++ {
		r1, e1 := doThrough(t, s1, "https://"+d.Name+"/", seed)
		r2, e2 := doThrough(t, s2, "https://"+d.Name+"/", seed)
		if (e1 == nil) != (e2 == nil) {
			t.Fatal("failure draws not deterministic")
		}
		if e1 == nil {
			if r1.StatusCode != r2.StatusCode {
				t.Fatal("status not deterministic")
			}
			r1.Body.Close()
			r2.Body.Close()
		}
	}
}

func TestVPSFleet(t *testing.T) {
	fleet := VPSFleet(testWorld, VPSCountries())
	if len(fleet) != 16 {
		t.Fatalf("fleet size = %d, want 16", len(fleet))
	}
	for _, v := range fleet {
		loc, ok := testWorld.Geo.Locate(v.IP)
		if !ok || loc.Country != v.Country {
			t.Fatalf("VPS in %s geolocates to %v", v.Country, loc)
		}
		if v.Stack() == nil {
			t.Fatal("VPS without stack")
		}
	}
}

func TestVPSStableAcrossRuns(t *testing.T) {
	a := VPSFleet(testWorld, VPSCountries())
	b := VPSFleet(testWorld, VPSCountries())
	for i := range a {
		if a[i].IP != b[i].IP {
			t.Fatal("VPS addressing not deterministic")
		}
	}
}

func TestRegionSession(t *testing.T) {
	crimea, err := testNet.NewRegionSession("UA", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !crimea.Exit().InCrimea {
			t.Fatal("Crimea session served a mainland exit")
		}
		crimea.Rotate()
	}
	mainland, err := testNet.NewRegionSession("UA", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if mainland.Exit().InCrimea || mainland.Exit().Mislocated {
			t.Fatal("mainland session served a Crimean or mislocated exit")
		}
		mainland.Rotate()
	}
	if _, err := testNet.NewRegionSession("DE", true, 1); err == nil {
		t.Fatal("Germany has no Crimean exits")
	}
}

func TestExitsAreProxyFlagged(t *testing.T) {
	// Every exit address must sit in the proxy-flagged slice (or the
	// Crimea range): the blacklist fate-sharing of §3.2 depends on it.
	for _, cc := range []geo.CountryCode{"US", "IR", "DE"} {
		for _, e := range testNet.Exits(cc) {
			if e.InCrimea {
				continue
			}
			if !testWorld.Geo.IsProxyExit(e.IP) {
				t.Fatalf("exit %v in %s not in the proxy slice", e.IP, cc)
			}
		}
	}
}

// hookStub is a fault hook that answers every request with one verdict,
// churns the exit from a given served count on, and records the served
// counts Churned sees and the Request calls it gets.
type hookStub struct {
	churnAt  int // churned once served reaches it; negative never
	verdict  FaultVerdict
	churned  []int
	requests int
}

func (h *hookStub) Brownout(geo.CountryCode, uint64, int) bool { return false }
func (h *hookStub) ExitDark(geo.CountryCode, geo.IP) bool      { return false }
func (h *hookStub) Churned(_ geo.CountryCode, _ geo.IP, served int) bool {
	h.churned = append(h.churned, served)
	return h.churnAt >= 0 && served >= h.churnAt
}
func (h *hookStub) Request(geo.CountryCode, geo.IP, string, uint64) FaultVerdict {
	h.requests++
	return h.verdict
}

// TestProbeChargesEveryHop pins what a probe that walks a same-site
// redirect chain costs the session: one request of the exit's budget
// per hop, and per hop, in order, the fault hook's churn check at that
// hop's served count and its request draw. A churned exit fails the
// hop it dies at, a truncating verdict cuts the last hop's transfer,
// and a probe whose budget ends mid-chain answers with the redirect.
func TestProbeChargesEveryHop(t *testing.T) {
	net := NewNetwork(testWorld)
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.RedirectHops == 2 && len(cand.GeoRules) == 0 && !cand.BlocksProxies && cand.JunkRate == 0 &&
			cand.ResidentialChallengeRate == 0 && len(cand.CensoredIn) == 0 && !cand.GAEHosted && !cand.AirbnbStyle {
			d = cand
			break
		}
	}
	if d == nil {
		t.Fatal("no plain two-redirect domain in the test world")
	}
	s, err := net.NewSession("DE", 9)
	if err != nil {
		t.Fatal(err)
	}
	var dest vnet.Dest
	s.Resolve(d.Name, &dest)
	if dest.PathDown {
		t.Fatalf("%s is unreachable from DE", d.Name)
	}
	probe := vnet.Probe{Scheme: "http", Host: d.Name, Path: "/", Dest: &dest, MaxHops: 10}
	var r vnet.Reply
	for ; probe.Seed < 100; probe.Seed++ {
		if s.Probe(probe, &r) == nil {
			break
		}
	}
	if probe.Seed == 100 {
		t.Fatalf("no seed reaches %s through the exit", d.Name)
	}

	for _, tc := range []struct {
		name     string
		hook     hookStub
		maxHops  int
		err      string // the failure, "" for an answer
		used     int    // requests charged to the exit
		churned  []int  // served counts Churned saw
		requests int
		status   int
	}{
		{"no fault", hookStub{churnAt: -1}, 10, "", 3, []int{0, 1, 2}, 3, 200},
		{"budget ends mid-chain", hookStub{churnAt: -1}, 2, "", 2, []int{0, 1}, 2, 301},
		{"churned at the second hop", hookStub{churnAt: 1}, 10, "exit connection failed", 2, []int{0, 1}, 1, 0},
		{"truncated", hookStub{churnAt: -1, verdict: FaultTruncate}, 10, "", 3, []int{0, 1, 2}, 3, 200},
		{"stalled", hookStub{churnAt: -1, verdict: FaultStall}, 10, "i/o timeout", 1, []int{0}, 1, 0},
		{"reset", hookStub{churnAt: -1, verdict: FaultReset}, 10, "connection reset by peer", 1, []int{0}, 1, 0},
		{"exit down", hookStub{churnAt: -1, verdict: FaultExitDown}, 10, "exit connection failed", 1, []int{0}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hook := tc.hook
			net.SetFaults(&hook)
			defer net.SetFaults(nil)
			s, err := net.NewSession("DE", 9) // the same exit, nothing spent
			if err != nil {
				t.Fatal(err)
			}
			p := probe
			p.MaxHops = tc.maxHops
			err = s.Probe(p, &r)
			switch {
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("err = %v, want %q", err, tc.err)
			case tc.err == "" && err != nil:
				t.Fatal(err)
			}
			if s.Used() != tc.used || !reflect.DeepEqual(hook.churned, tc.churned) || hook.requests != tc.requests {
				t.Errorf("charged %d, churn checks at %v, %d request draws; want %d, %v, %d",
					s.Used(), hook.churned, hook.requests, tc.used, tc.churned, tc.requests)
			}
			if tc.err != "" {
				return
			}
			if r.Status != tc.status || r.Hops != tc.used || r.Redirect != (tc.status == 301) {
				t.Errorf("answered %d after %d hops (redirect %v), want %d after %d", r.Status, r.Hops, r.Redirect, tc.status, tc.used)
			}
			if truncated := tc.hook.verdict == FaultTruncate; r.Truncated != truncated || (r.BodyLen < 0) != truncated {
				t.Errorf("truncated %v with length %d, want truncated %v", r.Truncated, r.BodyLen, truncated)
			}
			if tc.status == 301 && r.Location() != "https://www."+d.Name+"/" {
				t.Errorf("the redirect points at %q", r.Location())
			}
		})
	}
}
