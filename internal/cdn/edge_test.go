package cdn

import (
	"net/url"
	"reflect"
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// synthetic builds a bare domain with the given chain and rules,
// bypassing the generator so every branch of the edge is reachable.
func synthetic(name string, chain []worldgen.Provider, mutate func(*worldgen.Domain)) *worldgen.Domain {
	d := &worldgen.Domain{
		Name:      name,
		Rank:      1,
		TLD:       "com",
		Providers: chain,
		Origin:    blockpage.NewOriginSite(name, stats.NewRNG(1)),
		GeoRules:  map[worldgen.Provider]*worldgen.GeoRule{},
	}
	if mutate != nil {
		mutate(d)
	}
	return d
}

func serveSyn(t *testing.T, d *worldgen.Domain, cc geo.CountryCode, h map[string]string) Response {
	t.Helper()
	ip, err := testWorld.Geo.HostIP(cc, 42)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Domain: d, Host: d.Name, Path: "/", Method: "GET", Scheme: "https",
		ClientIP: ip, Header: browserHeaders(), SampleSeed: 1}
	for k, v := range h {
		req.Header.Set(k, v)
	}
	return Serve(testWorld, req)
}

func TestBlockKindPerProvider(t *testing.T) {
	rule := func() *worldgen.GeoRule {
		return &worldgen.GeoRule{
			Action:    worldgen.ActionBlock,
			Countries: map[geo.CountryCode]bool{"CH": true},
		}
	}
	cases := []struct {
		prov worldgen.Provider
		want blockpage.Kind
	}{
		{worldgen.Cloudflare, blockpage.Cloudflare},
		{worldgen.Akamai, blockpage.Akamai},
		{worldgen.CloudFront, blockpage.CloudFront},
		{worldgen.AppEngine, blockpage.AppEngine},
		{worldgen.Incapsula, blockpage.Incapsula},
		{worldgen.Baidu, blockpage.Baidu},
		{worldgen.Soasta, blockpage.Soasta},
		{worldgen.OriginNginx, blockpage.Nginx},
		{worldgen.OriginVarnish, blockpage.Varnish},
		{worldgen.OriginApache, blockpage.Nginx}, // fallthrough default
	}
	for _, tc := range cases {
		d := synthetic("blk.example", []worldgen.Provider{tc.prov}, func(d *worldgen.Domain) {
			d.GeoRules[tc.prov] = rule()
		})
		// Switzerland is not subject to edge GeoIP confusion with any
		// sanctioned neighbor; a single serve suffices but smooth over
		// the sticky misgeo anyway by checking ground truth.
		r := serveSyn(t, d, "CH", nil)
		if r.Page != tc.want {
			t.Errorf("%s block page = %v, want %v", tc.prov, r.Page, tc.want)
		}
		if r.Status != tc.want.Status() {
			t.Errorf("%s status = %d", tc.prov, r.Status)
		}
	}
}

func TestCaptchaKindPerProvider(t *testing.T) {
	rule := func(a worldgen.Action) *worldgen.GeoRule {
		return &worldgen.GeoRule{Action: a, Countries: map[geo.CountryCode]bool{"CH": true}}
	}
	// Cloudflare captcha.
	d := synthetic("cap.example", []worldgen.Provider{worldgen.Cloudflare}, func(d *worldgen.Domain) {
		d.GeoRules[worldgen.Cloudflare] = rule(worldgen.ActionCaptcha)
	})
	if r := serveSyn(t, d, "CH", nil); r.Page != blockpage.CloudflareCaptcha {
		t.Errorf("CF captcha = %v", r.Page)
	}
	// Baidu captcha.
	d = synthetic("cap2.example", []worldgen.Provider{worldgen.Baidu}, func(d *worldgen.Domain) {
		d.GeoRules[worldgen.Baidu] = rule(worldgen.ActionCaptcha)
	})
	if r := serveSyn(t, d, "CH", nil); r.Page != blockpage.BaiduCaptcha {
		t.Errorf("Baidu captcha = %v", r.Page)
	}
	// Other providers challenge through Distil.
	d = synthetic("cap3.example", []worldgen.Provider{worldgen.Akamai}, func(d *worldgen.Domain) {
		d.GeoRules[worldgen.Akamai] = rule(worldgen.ActionCaptcha)
	})
	if r := serveSyn(t, d, "CH", nil); r.Page != blockpage.DistilCaptcha {
		t.Errorf("generic captcha = %v", r.Page)
	}
	// Distil-protected domains always use Distil's interstitial.
	d = synthetic("cap4.example", []worldgen.Provider{worldgen.Cloudflare}, func(d *worldgen.Domain) {
		d.DistilProtected = true
		d.GeoRules[worldgen.Cloudflare] = rule(worldgen.ActionCaptcha)
	})
	if r := serveSyn(t, d, "CH", nil); r.Page != blockpage.DistilCaptcha {
		t.Errorf("distil overlay = %v", r.Page)
	}
	// JS challenge.
	d = synthetic("js.example", []worldgen.Provider{worldgen.Cloudflare}, func(d *worldgen.Domain) {
		d.GeoRules[worldgen.Cloudflare] = rule(worldgen.ActionJS)
	})
	if r := serveSyn(t, d, "CH", nil); r.Page != blockpage.CloudflareJS || r.Status != 503 {
		t.Errorf("JS challenge = %v/%d", r.Page, r.Status)
	}
}

func TestProxyBlacklistKinds(t *testing.T) {
	exit, err := testWorld.Geo.ProxyExitIP("CH", 3)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(d *worldgen.Domain) Response {
		return Serve(testWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
			Scheme: "https", ClientIP: exit, Header: browserHeaders(), SampleSeed: 2})
	}
	cases := []struct {
		chain  []worldgen.Provider
		distil bool
		want   blockpage.Kind
	}{
		{[]worldgen.Provider{worldgen.Akamai}, false, blockpage.Akamai},
		{[]worldgen.Provider{worldgen.Incapsula}, false, blockpage.Incapsula},
		{[]worldgen.Provider{worldgen.OriginVarnish}, false, blockpage.Varnish},
		{[]worldgen.Provider{worldgen.OriginNginx}, false, blockpage.Nginx},
		{[]worldgen.Provider{worldgen.OriginApache}, false, blockpage.Nginx},
		{[]worldgen.Provider{worldgen.Akamai}, true, blockpage.DistilCaptcha},
	}
	for _, tc := range cases {
		d := synthetic("pxy.example", tc.chain, func(d *worldgen.Domain) {
			d.BlocksProxies = true
			d.DistilProtected = tc.distil
		})
		if r := serve(d); r.Page != tc.want {
			t.Errorf("chain %v distil=%v: page = %v, want %v", tc.chain, tc.distil, r.Page, tc.want)
		}
	}
}

func TestReputationStickyPerIP(t *testing.T) {
	d := synthetic("rep.example", []worldgen.Provider{worldgen.Akamai}, func(d *worldgen.Domain) {
		d.ReputationSensitivity = 0.9
	})
	ip, _ := testWorld.Geo.HostIP("IR", 5)
	first := Serve(testWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
		Scheme: "https", ClientIP: ip, Header: browserHeaders(), SampleSeed: 0}).Page
	for seed := uint64(1); seed < 10; seed++ {
		got := Serve(testWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
			Scheme: "https", ClientIP: ip, Header: browserHeaders(), SampleSeed: seed}).Page
		if got != first {
			t.Fatalf("reputation verdict flipped between requests: %v then %v", first, got)
		}
	}
}

func TestResidentialChallengeNoise(t *testing.T) {
	d := synthetic("noise.example", []worldgen.Provider{worldgen.Cloudflare}, func(d *worldgen.Domain) {
		d.ResidentialChallengeRate = 1.0 // always challenge
	})
	r := serveSyn(t, d, "CH", nil)
	if r.Page != blockpage.CloudflareCaptcha {
		t.Fatalf("CF residential challenge = %v", r.Page)
	}
	d = synthetic("noise2.example", []worldgen.Provider{worldgen.OriginNginx}, func(d *worldgen.Domain) {
		d.ResidentialChallengeRate = 1.0
	})
	if r := serveSyn(t, d, "CH", nil); r.Page != blockpage.DistilCaptcha {
		t.Fatalf("non-CF residential challenge = %v", r.Page)
	}
}

func TestAppLayerVariantServed(t *testing.T) {
	d := synthetic("app.example", []worldgen.Provider{worldgen.OriginNginx}, func(d *worldgen.Domain) {
		d.AppLayer = &worldgen.AppLayerPolicy{
			RestrictedIn: map[geo.CountryCode]bool{"IR": true},
			PriceMarkup:  map[geo.CountryCode]float64{"BR": 1.5},
		}
	})
	restricted := serveSyn(t, d, "IR", nil)
	if restricted.Status != 200 {
		t.Fatalf("restricted variant status %d", restricted.Status)
	}
	if body := restricted.Body(); !containsFold(body, "not available in your region") {
		t.Fatal("restricted variant missing notice")
	}
	plain := serveSyn(t, d, "CH", nil)
	if body := plain.Body(); !containsFold(body, `href="/checkout"`) {
		t.Fatal("plain variant missing checkout")
	}
	if restricted.BodyLen == plain.BodyLen {
		t.Log("variant lengths equal (possible but unlikely)")
	}
}

func TestJunkPageServed(t *testing.T) {
	d := synthetic("junky.example", []worldgen.Provider{worldgen.OriginNginx}, func(d *worldgen.Domain) {
		d.JunkRate = 1.0
	})
	r := serveSyn(t, d, "CH", nil)
	if r.Status != 200 {
		t.Fatalf("junk page status %d", r.Status)
	}
	if r.BodyLen > 4000 {
		t.Fatalf("junk page suspiciously long: %d", r.BodyLen)
	}
	if len(r.Body()) != r.BodyLen {
		t.Fatal("junk Content-Length mismatch")
	}
}

func TestHeadersOnDualChain(t *testing.T) {
	d := synthetic("dual.example", []worldgen.Provider{worldgen.Incapsula, worldgen.Akamai}, nil)
	r := serveSyn(t, d, "CH", map[string]string{"Pragma": "akamai-x-cache-on"})
	if r.Header().Get("X-Iinfo") == "" {
		t.Fatal("Incapsula header missing on dual chain")
	}
	if r.Header().Get("X-Check-Cacheable") != "YES" {
		t.Fatal("Akamai debug headers missing on dual chain")
	}
}

func TestUnallocatedClientIP(t *testing.T) {
	d := synthetic("noloc.example", []worldgen.Provider{worldgen.Cloudflare}, func(d *worldgen.Domain) {
		d.GeoRules[worldgen.Cloudflare] = &worldgen.GeoRule{
			Action: worldgen.ActionBlock, Countries: map[geo.CountryCode]bool{"IR": true},
		}
	})
	// A bogon source has no location: rules must not fire.
	r := Serve(testWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
		Scheme: "https", ClientIP: 0x01000000, Header: browserHeaders(), SampleSeed: 1})
	if r.Page != blockpage.KindNone {
		t.Fatalf("bogon client blocked: %v", r.Page)
	}
}

func TestLegal451Served(t *testing.T) {
	d, ok := testWorld.Lookup("lexpublica.com")
	if !ok {
		t.Fatal("cameo missing")
	}
	crimea := testWorld.Geo.CrimeaHostIP(7)
	counts := map[blockpage.Kind]int{}
	for seed := uint64(0); seed < 9; seed++ {
		r := Serve(testWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
			Scheme: "https", ClientIP: crimea, Header: browserHeaders(), SampleSeed: seed})
		counts[r.Page]++
		if r.Page == blockpage.Legal451 && r.Status != 451 {
			t.Fatalf("451 page served with status %d", r.Status)
		}
	}
	if counts[blockpage.Legal451] < 5 {
		t.Fatalf("Crimean client should majority-see the 451 page: %v", counts)
	}
	// Mainland Ukraine gets the real page.
	ua, _ := testWorld.Geo.HostIP("UA", 7)
	r := Serve(testWorld, Request{Domain: d, Host: d.Name, Path: "/", Method: "GET",
		Scheme: "https", ClientIP: ua, Header: browserHeaders(), SampleSeed: 1})
	if r.Status == 451 {
		t.Fatal("mainland Ukraine must not see the 451")
	}
}

// TestLocatedServesLikeUnlocated pins that a request with its client
// located once (Loc from Locate), its header set classified once
// (Fingerprint from Classify) and its domain's name hashed once is
// served exactly like one the edge works out itself: same status,
// length, page, redirect, body and headers. The clients are a residential and a proxy-exit address in
// every country's range, a Crimean address, and addresses the edge
// misgeolocates; the domains are Top-10K sites with a
// location-dependent policy, plus plain ones, over both schemes and
// both header sets.
func TestLocatedServesLikeUnlocated(t *testing.T) {
	db := testWorld.Geo
	var ips []geo.IP
	for _, c := range db.Countries() {
		for _, mint := range []func(geo.CountryCode, uint64) (geo.IP, error){db.HostIP, db.ProxyExitIP} {
			if ip, err := mint(c.Code, 7); err == nil {
				ips = append(ips, ip)
			}
		}
	}
	ips = append(ips, db.CrimeaHostIP(7))
	misplaced := 0
	for n := uint64(0); misplaced < 16 && n < 1<<16; n++ {
		cs := db.Countries()
		ip, err := db.ProxyExitIP(cs[n%uint64(len(cs))].Code, n)
		if err != nil {
			continue
		}
		if loc, _ := db.Locate(ip); Locate(testWorld, ip) != loc {
			ips = append(ips, ip)
			misplaced++
		}
	}
	if misplaced < 16 {
		t.Fatalf("found %d misgeolocated addresses", misplaced)
	}

	var domains []*worldgen.Domain
	located, plain := 0, 0
	for _, d := range testWorld.Top10K() {
		switch {
		case len(d.GeoRules) > 0 || d.GAEHosted || d.AirbnbStyle || d.AppLayer != nil:
			if located < 24 {
				domains = append(domains, d)
				located++
			}
		case plain < 4 && d.RedirectHops > 0:
			domains = append(domains, d)
			plain++
		}
	}

	served := map[blockpage.Kind]int{}
	for i, ip := range ips {
		for j, d := range domains {
			h := browserHeaders()
			if (i+j)%3 == 0 {
				h = crawlerHeaders()
			}
			req := Request{Domain: d, Host: d.Name, Path: "/", Method: "GET", Scheme: []string{"http", "https"}[(i+j)%2],
				ClientIP: ip, Header: h, SampleSeed: uint64(i*len(domains) + j)}
			want := Serve(testWorld, req)
			req.Loc, req.Located, req.Fingerprint, req.NameHash = Locate(testWorld, ip), true, Classify(h), stats.Hash(d.Name)
			got := Serve(testWorld, req)
			if got.Status != want.Status || got.BodyLen != want.BodyLen || got.Page != want.Page ||
				got.Location() != want.Location() || got.Body() != want.Body() ||
				!reflect.DeepEqual(got.Header(), want.Header()) {
				t.Fatalf("%s from %s: located %d/%d bytes/%v -> %q, unlocated %d/%d bytes/%v -> %q",
					d.Name, ip, got.Status, got.BodyLen, got.Page, got.Location(), want.Status, want.BodyLen, want.Page, want.Location())
			}
			served[want.Page]++
		}
	}
	t.Logf("%d addresses x %d domains: %v", len(ips), len(domains), served)
	if len(served) < 5 {
		t.Errorf("the comparison saw only %d page kinds: %v", len(served), served)
	}
}

// serveHops answers req the way a client sending the same-site hops one
// by one is answered: one-hop requests, each to the last one's
// Location, until the answer is not a redirect or the k-th request
// has been sent. It returns the last answer and the requests sent.
func serveHops(t *testing.T, req Request, k int) (Response, int) {
	t.Helper()
	req.MaxHops = 0
	for n := 1; ; n++ {
		resp := Serve(testWorld, req)
		if !resp.Redirect() || n >= k {
			return resp, n
		}
		u, err := url.Parse(resp.Location())
		if err != nil {
			t.Fatal(err)
		}
		req.Scheme, req.Host, req.Path = u.Scheme, u.Host, u.Path
	}
}

// TestChainServesLikeHops pins the chain walk: a request with hop
// budget k is answered what k one-hop requests along the redirect
// chain are answered at their last hop — status, length, page, body,
// headers and Location — and reports how many of them the chain took.
// The sites redirect zero, one or two times or loop, and include a
// blocked and a junk-serving one; the chain starts over http and https
// at the apex and at www., and the budgets run from 1 to http.Client's
// bound of 10 (0 is the one-hop answer too).
func TestChainServesLikeHops(t *testing.T) {
	const maxRedirects = 10
	blockIR := func(d *worldgen.Domain) {
		d.RedirectHops = 2
		d.GeoRules[worldgen.Cloudflare] = &worldgen.GeoRule{Action: worldgen.ActionBlock,
			Countries: map[geo.CountryCode]bool{"IR": true}}
	}
	domains := []*worldgen.Domain{
		synthetic("direct.example", []worldgen.Provider{worldgen.Cloudflare}, nil),
		synthetic("onehop.example", []worldgen.Provider{worldgen.Akamai}, func(d *worldgen.Domain) { d.RedirectHops = 1 }),
		synthetic("twohop.example", []worldgen.Provider{worldgen.CloudFront}, func(d *worldgen.Domain) { d.RedirectHops = 2 }),
		synthetic("loop.example", []worldgen.Provider{worldgen.OriginNginx}, func(d *worldgen.Domain) { d.RedirectLoop = true }),
		synthetic("blocked.example", []worldgen.Provider{worldgen.Cloudflare}, blockIR),
		synthetic("junk.example", []worldgen.Provider{worldgen.Incapsula}, func(d *worldgen.Domain) {
			d.RedirectHops, d.JunkRate = 2, 0.5
		}),
	}
	var clients []geo.IP
	for _, cc := range []geo.CountryCode{"US", "IR"} {
		ip, err := testWorld.Geo.HostIP(cc, 42)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, ip)
	}
	// The junk-serving site's pages without the junk, to tell the two
	// apart.
	origin := *domains[len(domains)-1]
	origin.JunkRate = 0
	hops := map[string]map[int]int{} // domain → requests taken → answers
	pages := map[blockpage.Kind]int{}
	junk := map[bool]int{}
	for _, d := range domains {
		hops[d.Name] = map[int]int{}
		for _, ip := range clients {
			for _, scheme := range []string{"http", "https"} {
				for _, host := range []string{d.Name, "www." + d.Name} {
					for seed := uint64(0); seed < 4; seed++ {
						req := Request{Domain: d, Host: host, Path: "/", Method: "GET", Scheme: scheme,
							ClientIP: ip, Header: browserHeaders(), SampleSeed: seed}
						for k := 0; k <= maxRedirects; k++ {
							want, n := serveHops(t, req, k)
							req.MaxHops = k
							got := Serve(testWorld, req)
							if got.Hops != n || got.Status != want.Status || got.BodyLen != want.BodyLen ||
								got.Page != want.Page || got.Location() != want.Location() ||
								got.Body() != want.Body() || !reflect.DeepEqual(got.Header(), want.Header()) {
								t.Fatalf("%s://%s from %s, seed %d, budget %d: chain %d hops %d/%d bytes/%v -> %q, one by one %d hops %d/%d bytes/%v -> %q",
									scheme, host, ip, seed, k, got.Hops, got.Status, got.BodyLen, got.Page, got.Location(),
									n, want.Status, want.BodyLen, want.Page, want.Location())
							}
							hops[d.Name][n]++
							pages[got.Page]++
							if d.JunkRate > 0 && got.Status == 200 {
								plain := req
								plain.Domain = &origin
								junk[got.Body() != Serve(testWorld, plain).Body()]++
							}
						}
					}
				}
			}
		}
	}
	// The comparison is only as good as the chains it walked.
	for name, wantMax := range map[string]int{"direct.example": 1, "onehop.example": 2, "twohop.example": 3,
		"loop.example": maxRedirects, "blocked.example": 3, "junk.example": 3} {
		longest := 0
		for n := range hops[name] {
			longest = max(longest, n)
		}
		if longest != wantMax {
			t.Errorf("%s: the longest chain took %d requests, want %d (%v)", name, longest, wantMax, hops[name])
		}
	}
	if pages[blockpage.Cloudflare] == 0 {
		t.Errorf("no answer was a block page: %v", pages)
	}
	if junk[true] == 0 || junk[false] == 0 {
		t.Errorf("the junk-serving site answered %d junk and %d origin pages", junk[true], junk[false])
	}
	t.Logf("requests per answer %v; pages %v; junk pages %v", hops, pages, junk)
}
