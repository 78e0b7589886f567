package cdn

import (
	"net/http"
	"strings"
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
	"geoblock/internal/worldgen"
)

var testWorld = worldgen.Generate(worldgen.TestConfig())

func browserHeaders() http.Header {
	h := make(http.Header)
	h.Set("User-Agent", "Mozilla/5.0 (Macintosh; Intel Mac OS X 10.13; rv:61.0) Gecko/20100101 Firefox/61.0")
	h.Set("Accept", "text/html,application/xhtml+xml")
	h.Set("Accept-Language", "en-US,en;q=0.5")
	return h
}

func crawlerHeaders() http.Header {
	h := make(http.Header)
	h.Set("User-Agent", "Mozilla/5.0 zgrab/0.x")
	return h
}

func reqFor(t *testing.T, name string, cc geo.CountryCode, h http.Header, seed uint64) Request {
	t.Helper()
	d, ok := testWorld.Lookup(name)
	if !ok {
		t.Fatalf("domain %s not found", name)
	}
	ip, err := testWorld.Geo.HostIP(cc, 42)
	if err != nil {
		t.Fatal(err)
	}
	return Request{
		Domain: d, Host: name, Path: "/", Method: "GET", Scheme: "https",
		ClientIP: ip, Header: h, Clock: 0, SampleSeed: seed,
	}
}

// serveStable calls Serve with several seeds and returns the majority
// outcome, smoothing over the injected GeoIP error noise.
func serveStable(t *testing.T, name string, cc geo.CountryCode, h http.Header) Response {
	t.Helper()
	counts := map[blockpage.Kind]int{}
	var last Response
	responses := map[blockpage.Kind]Response{}
	for seed := uint64(0); seed < 9; seed++ {
		r := Serve(testWorld, reqFor(t, name, cc, h, seed))
		counts[r.Page]++
		responses[r.Page] = r
		last = r
	}
	// The most frequent page; of tied pages, the lower kind.
	best, n := last.Page, 0
	for k := blockpage.KindNone; k <= blockpage.Legal451; k++ {
		if c := counts[k]; c > n {
			best, n = k, c
		}
	}
	return responses[best]
}

func TestOriginServed(t *testing.T) {
	d := testWorld.Top10K()[0]
	// Find a domain with no rules at all.
	for _, cand := range testWorld.Top10K() {
		if len(cand.GeoRules) == 0 && !cand.AirbnbStyle && !cand.GAEHosted &&
			cand.ResidentialChallengeRate == 0 && !cand.Unreachable && cand.RedirectHops == 0 && !cand.RedirectLoop {
			d = cand
			break
		}
	}
	r := serveStable(t, d.Name, "US", browserHeaders())
	if r.Status != 200 || r.Page != blockpage.KindNone {
		t.Fatalf("plain domain %s served %d/%v", d.Name, r.Status, r.Page)
	}
	body := r.Body()
	if len(body) != r.BodyLen {
		t.Fatalf("BodyLen %d != len(body) %d", r.BodyLen, len(body))
	}
	if !strings.Contains(body, d.Name) {
		t.Fatal("origin page should carry the domain name")
	}
}

func TestAppEnginePlatformBlock(t *testing.T) {
	var gae *worldgen.Domain
	for _, d := range testWorld.Top10K() {
		if d.GAEHosted && len(d.Providers) == 1 && d.Providers[0] == worldgen.AppEngine {
			gae = d
			break
		}
	}
	if gae == nil {
		t.Skip("no GAE-hosted domain at this scale")
	}
	r := serveStable(t, gae.Name, "IR", browserHeaders())
	if r.Page != blockpage.AppEngine || r.Status != 403 {
		t.Fatalf("GAE in Iran: %v/%d", r.Page, r.Status)
	}
	if !blockpage.Matches(blockpage.AppEngine, r.Body()) {
		t.Fatal("body is not the AppEngine page")
	}
	r = serveStable(t, gae.Name, "DE", browserHeaders())
	if r.Page != blockpage.KindNone {
		t.Fatalf("GAE in Germany should serve content, got %v", r.Page)
	}
}

func TestCloudflareGeoblock(t *testing.T) {
	var d *worldgen.Domain
	var cc geo.CountryCode
	for _, cand := range testWorld.Top10K() {
		if rule, ok := cand.GeoRules[worldgen.Cloudflare]; ok && rule.Action == worldgen.ActionBlock {
			d = cand
			cc = rule.CountryList()[0]
			break
		}
	}
	if d == nil {
		t.Skip("no Cloudflare geoblocker at this scale")
	}
	if !countryMeasurable(cc) {
		t.Skipf("blocked country %s not measurable", cc)
	}
	r := serveStable(t, d.Name, cc, browserHeaders())
	if r.Page != blockpage.Cloudflare {
		t.Fatalf("expected Cloudflare block in %s, got %v", cc, r.Page)
	}
	body := r.Body()
	if !strings.Contains(body, testWorld.Geo.Name(geo.CountryCode(cc))) {
		t.Fatalf("Cloudflare page should name the blocked country %s", cc)
	}
	if r.Header().Get("CF-RAY") == "" || r.Header().Get("Server") != "cloudflare" {
		t.Fatal("Cloudflare headers missing on block page")
	}
}

func countryMeasurable(cc geo.CountryCode) bool {
	for _, m := range testWorld.Geo.Measurable() {
		if m == cc {
			return true
		}
	}
	return false
}

func TestAkamaiBotDefense(t *testing.T) {
	// Bot-sensitive deployments are rare at default calibration; build
	// a small world where they are common.
	cfg := worldgen.TestConfig()
	cfg.Scale = 0.05
	cfg.AkamaiBotSensitivityRate = 0.6
	botWorld := worldgen.Generate(cfg)
	var d *worldgen.Domain
	for _, cand := range botWorld.Top10K() {
		if cand.FrontedBy(worldgen.Akamai) && cand.BotSensitivity > 0.8 && len(cand.GeoRules) == 0 && !cand.AirbnbStyle {
			d = cand
			break
		}
	}
	if d == nil {
		t.Fatal("no bot-sensitive Akamai domain even at elevated rate")
	}
	ip, _ := botWorld.Geo.HostIP("US", 42)
	serve := func(h http.Header) map[blockpage.Kind]int {
		counts := map[blockpage.Kind]int{}
		for seed := uint64(0); seed < 9; seed++ {
			r := Serve(botWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
				Scheme: "https", ClientIP: ip, Header: h, SampleSeed: seed})
			counts[r.Page]++
		}
		return counts
	}
	if c := serve(crawlerHeaders()); c[blockpage.Akamai] < 5 {
		t.Fatalf("crawler against bot-sensitive Akamai: %v", c)
	}
	if c := serve(browserHeaders()); c[blockpage.KindNone] < 5 {
		t.Fatalf("browser against same domain should pass: %v", c)
	}
}

func TestAkamaiPragmaDebugHeaders(t *testing.T) {
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if len(cand.Providers) == 1 && cand.Providers[0] == worldgen.Akamai && cand.BotSensitivity < 0.5 {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no Akamai domain at this scale")
	}
	h := browserHeaders()
	r := Serve(testWorld, reqFor(t, d.Name, "US", h, 1))
	if r.Header().Get("X-Check-Cacheable") != "" {
		t.Fatal("Akamai debug headers must not appear without Pragma")
	}
	h.Set("Pragma", "akamai-x-cache-on, akamai-x-get-cache-key")
	r = Serve(testWorld, reqFor(t, d.Name, "US", h, 1))
	if r.Header().Get("X-Check-Cacheable") != "YES" || !strings.Contains(r.Header().Get("X-Cache"), "akamaitechnologies.com") {
		t.Fatal("Akamai debug headers missing with Pragma")
	}
}

func TestProviderHeaderSignatures(t *testing.T) {
	cases := []struct {
		prov   worldgen.Provider
		header string
	}{
		{worldgen.Cloudflare, "CF-RAY"},
		{worldgen.CloudFront, "X-Amz-Cf-Id"},
		{worldgen.Incapsula, "X-Iinfo"},
	}
	for _, tc := range cases {
		found := false
		for _, d := range testWorld.Top10K() {
			if len(d.Providers) == 1 && d.Providers[0] == tc.prov {
				r := Serve(testWorld, reqFor(t, d.Name, "CH", browserHeaders(), 3))
				if r.Header().Get(tc.header) == "" {
					t.Errorf("%s response missing %s", tc.prov, tc.header)
				}
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s domain found", tc.prov)
		}
	}
}

func TestMakroFlip(t *testing.T) {
	d, _ := testWorld.Lookup("makro.co.za")
	rule := d.GeoRules[worldgen.CloudFront]
	cc := rule.CountryList()[0]
	if !countryMeasurable(cc) {
		for _, c := range rule.CountryList() {
			if countryMeasurable(c) {
				cc = c
				break
			}
		}
	}
	ip, _ := testWorld.Geo.HostIP(cc, 9)
	req := Request{Domain: d, Host: d.Name, Path: "/", Method: "GET", Scheme: "https",
		ClientIP: ip, Header: browserHeaders(), Clock: 0, SampleSeed: 5}
	if r := Serve(testWorld, req); r.Page != blockpage.CloudFront {
		t.Fatalf("makro at clock 0 in %s: %v", cc, r.Page)
	}
	req.Clock = 1
	if r := Serve(testWorld, req); r.Page == blockpage.CloudFront {
		t.Fatal("makro should have lifted its rule at clock 1")
	}
}

func TestCrimeaGranularity(t *testing.T) {
	d, _ := testWorld.Lookup("geniusdisplay.com")
	crimea := testWorld.Geo.CrimeaHostIP(5)
	req := Request{Domain: d, Host: d.Name, Path: "/", Method: "GET", Scheme: "https",
		ClientIP: crimea, Header: browserHeaders(), Clock: 0, SampleSeed: 2}
	counts := map[blockpage.Kind]int{}
	for seed := uint64(0); seed < 9; seed++ {
		req.SampleSeed = seed
		counts[Serve(testWorld, req).Page]++
	}
	if counts[blockpage.AppEngine] < 5 {
		t.Fatalf("Crimean client should majority-see the AppEngine page: %v", counts)
	}
	// Mainland Ukraine sees content (nginx rule is Russia-only).
	r := serveStable(t, d.Name, "UA", browserHeaders())
	if r.Page != blockpage.KindNone {
		t.Fatalf("mainland Ukraine should see content, got %v", r.Page)
	}
	// Russia sees the nginx 403.
	r = serveStable(t, d.Name, "RU", browserHeaders())
	if r.Page != blockpage.Nginx {
		t.Fatalf("Russia should see the nginx page, got %v", r.Page)
	}
}

func TestRedirectChain(t *testing.T) {
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.RedirectHops == 2 && len(cand.GeoRules) == 0 && !cand.GAEHosted && !cand.AirbnbStyle {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no 2-hop domain at this scale")
	}
	ip, _ := testWorld.Geo.HostIP("US", 3)
	req := Request{Domain: d, Host: d.Name, Path: "/", Method: "GET", Scheme: "http",
		ClientIP: ip, Header: browserHeaders(), SampleSeed: 4}
	r := Serve(testWorld, req)
	if r.Status != 301 || r.Location() != "https://"+d.Name+"/" {
		t.Fatalf("hop 1: %d -> %q", r.Status, r.Location())
	}
	req.Scheme = "https"
	r = Serve(testWorld, req)
	if r.Status != 301 || r.Location() != "https://www."+d.Name+"/" {
		t.Fatalf("hop 2: %d -> %q", r.Status, r.Location())
	}
	req.Host = "www." + d.Name
	r = Serve(testWorld, req)
	if r.Status != 200 {
		t.Fatalf("final hop: %d", r.Status)
	}
}

func TestRedirectLoop(t *testing.T) {
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
	ip, _ := testWorld.Geo.HostIP("US", 3)
	req := Request{Domain: d, Host: d.Name, Path: "/a", Method: "GET", Scheme: "https",
		ClientIP: ip, Header: browserHeaders(), SampleSeed: 4}
	r := Serve(testWorld, req)
	if r.Status != 301 || !strings.HasSuffix(r.Location(), "/b") {
		t.Fatalf("loop hop: %d -> %q", r.Status, r.Location())
	}
}

func TestBlockBeatsRedirect(t *testing.T) {
	// A geoblocked client must get the block page on first contact,
	// even for domains with redirect chains.
	var d *worldgen.Domain
	var cc geo.CountryCode
	for _, cand := range testWorld.Top10K() {
		if rule, ok := cand.GeoRules[worldgen.Cloudflare]; ok && rule.Action == worldgen.ActionBlock && cand.RedirectHops > 0 {
			for _, c := range rule.CountryList() {
				if countryMeasurable(c) {
					d, cc = cand, c
					break
				}
			}
			if d != nil {
				break
			}
		}
	}
	if d == nil {
		t.Skip("no redirecting geoblocker at this scale")
	}
	ip, _ := testWorld.Geo.HostIP(cc, 7)
	req := Request{Domain: d, Host: d.Name, Path: "/", Method: "GET", Scheme: "http",
		ClientIP: ip, Header: browserHeaders(), SampleSeed: 11}
	counts := map[blockpage.Kind]int{}
	for seed := uint64(0); seed < 9; seed++ {
		req.SampleSeed = seed
		counts[Serve(testWorld, req).Page]++
	}
	if counts[blockpage.Cloudflare] < 5 {
		t.Fatalf("block should fire before redirect: %v", counts)
	}
}

func TestDeterministicResponses(t *testing.T) {
	d := testWorld.Top10K()[10]
	req := reqFor(t, d.Name, "FR", browserHeaders(), 99)
	a := Serve(testWorld, req)
	b := Serve(testWorld, req)
	if a.Status != b.Status || a.BodyLen != b.BodyLen || a.Page != b.Page {
		t.Fatal("same request must produce identical responses")
	}
	if a.Body() != b.Body() {
		t.Fatal("bodies differ across identical requests")
	}
}

func TestCrawlerLike(t *testing.T) {
	if !crawlerLike(nil) || !crawlerLike(make(http.Header)) {
		t.Fatal("empty headers are crawler-like")
	}
	if !crawlerLike(crawlerHeaders()) {
		t.Fatal("UA-only is still crawler-like (§3.2)")
	}
	if crawlerLike(browserHeaders()) {
		t.Fatal("full browser headers must not be crawler-like")
	}
}

func TestGeoIPErrorRateBounded(t *testing.T) {
	// Over many seeds, a blocked (domain, country) pair should see its
	// block page in well over 80% of samples (Figure 4).
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.GAEHosted && len(cand.Providers) == 1 && cand.Providers[0] == worldgen.AppEngine {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no GAE domain")
	}
	ip, _ := testWorld.Geo.HostIP("SY", 21)
	blocked := 0
	const n = 200
	for seed := uint64(0); seed < n; seed++ {
		r := Serve(testWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
			Scheme: "https", ClientIP: ip, Header: browserHeaders(), SampleSeed: seed})
		if r.Page == blockpage.AppEngine {
			blocked++
		}
	}
	rate := float64(blocked) / n
	if rate < 0.9 || rate > 1.0 {
		t.Fatalf("block rate %.2f; GeoIP noise should be small", rate)
	}
	if blocked == n {
		t.Log("no GeoIP flips in this window (acceptable)")
	}
}

func TestProxyBlacklistBlockedEverywhere(t *testing.T) {
	// A BlocksProxies domain denies proxy-exit addresses in every
	// country, but serves real clients normally.
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.BlocksProxies && cand.FrontedBy(worldgen.Akamai) && !cand.Unreachable && len(cand.CensoredIn) == 0 {
			d = cand
			break
		}
	}
	if d == nil {
		cfg := worldgen.TestConfig()
		cfg.Scale = 0.05
		cfg.ProxyBlockAkamai = 0.5
		w := worldgen.Generate(cfg)
		for _, cand := range w.Top10K() {
			if cand.BlocksProxies && cand.FrontedBy(worldgen.Akamai) && !cand.Unreachable && len(cand.CensoredIn) == 0 {
				d = cand
				break
			}
		}
		if d == nil {
			t.Fatal("no proxy-blocking Akamai domain even at elevated rate")
		}
		for _, cc := range []geo.CountryCode{"US", "DE", "IR", "JP"} {
			exitIP, err := w.Geo.ProxyExitIP(cc, 9)
			if err != nil {
				t.Fatal(err)
			}
			r := Serve(w, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
				Scheme: "https", ClientIP: exitIP, Header: browserHeaders(), SampleSeed: 3})
			if r.Page != blockpage.Akamai {
				t.Fatalf("proxy exit in %s got %v, want the Akamai page", cc, r.Page)
			}
			hostIP, _ := w.Geo.HostIP(cc, 9)
			r = Serve(w, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
				Scheme: "https", ClientIP: hostIP, Header: browserHeaders(), SampleSeed: 3})
			if r.Page == blockpage.Akamai && len(d.GeoRules) == 0 {
				t.Fatalf("ordinary resident in %s hit the proxy blacklist", cc)
			}
		}
		return
	}
	for _, cc := range []geo.CountryCode{"US", "DE", "IR", "JP"} {
		exitIP, err := testWorld.Geo.ProxyExitIP(cc, 9)
		if err != nil {
			t.Fatal(err)
		}
		r := Serve(testWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
			Scheme: "https", ClientIP: exitIP, Header: browserHeaders(), SampleSeed: 3})
		if r.Page != blockpage.Akamai {
			t.Fatalf("proxy exit in %s got %v, want the Akamai page", cc, r.Page)
		}
	}
}

func TestAnonymizerChallengedByCloudflare(t *testing.T) {
	// Cloudflare-fronted domains challenge Tor/VPN exit addresses.
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if len(cand.Providers) == 1 && cand.Providers[0] == worldgen.Cloudflare &&
			len(cand.GeoRules) == 0 && !cand.Unreachable && len(cand.CensoredIn) == 0 {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no plain Cloudflare domain")
	}
	var tor geo.IP
	for n := uint64(0); ; n++ {
		ip, err := testWorld.Geo.DatacenterIP("US", n)
		if err != nil {
			t.Fatal(err)
		}
		if testWorld.Geo.IsAnonymizer(ip) {
			tor = ip
			break
		}
	}
	challenged := 0
	const trials = 12
	for seed := uint64(0); seed < trials; seed++ {
		r := Serve(testWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
			Scheme: "https", ClientIP: tor, Header: browserHeaders(), SampleSeed: seed})
		if r.Page == blockpage.CloudflareCaptcha {
			challenged++
		}
	}
	// The verdict is sticky per (domain, IP): all or nothing.
	if challenged != 0 && challenged != trials {
		t.Fatalf("anonymizer verdict not sticky: %d of %d challenged", challenged, trials)
	}
}
