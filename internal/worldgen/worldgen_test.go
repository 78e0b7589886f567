package worldgen

import (
	"testing"

	"geoblock/internal/stats"

	"geoblock/internal/category"
	"geoblock/internal/geo"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	return Generate(TestConfig())
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TestConfig())
	b := Generate(TestConfig())
	if len(a.Top10K()) != len(b.Top10K()) {
		t.Fatal("population sizes differ")
	}
	for i := range a.Top10K() {
		da, db := a.Top10K()[i], b.Top10K()[i]
		if da.Name != db.Name || da.Category != db.Category || len(da.GeoRules) != len(db.GeoRules) {
			t.Fatalf("domain %d differs: %q vs %q", i, da.Name, db.Name)
		}
	}
	ra, rb := a.CustomerRanks(), b.CustomerRanks()
	if len(ra) != len(rb) {
		t.Fatal("customer populations differ")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("customer rank %d differs", i)
		}
	}
}

func TestTop10KPopulation(t *testing.T) {
	w := testWorld(t)
	cfg := w.Cfg
	if got, want := len(w.Top10K()), cfg.scaled(cfg.Top10KSize); got != want {
		t.Fatalf("top10k size = %d, want %d", got, want)
	}
	counts := map[Provider]int{}
	for _, d := range w.Top10K() {
		if d.Name == "" || d.Rank < 1 || d.Origin == nil {
			t.Fatalf("malformed domain %+v", d)
		}
		if len(d.Providers) == 0 {
			t.Fatalf("%s has no providers", d.Name)
		}
		for _, p := range d.Providers {
			counts[p]++
		}
	}
	for _, p := range CDNs() {
		want := cfg.scaled(cfg.Top10KProviderCounts[p])
		got := counts[p]
		// Cameo placement can shift a few assignments.
		if got < want-20 || got > want+20 {
			t.Errorf("%s fronts %d domains, want ~%d", p, got, want)
		}
	}
}

func TestUniqueNames(t *testing.T) {
	w := testWorld(t)
	seen := map[string]bool{}
	for _, d := range w.Top10K() {
		if seen[d.Name] {
			t.Fatalf("duplicate name %q", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestCameosPresent(t *testing.T) {
	w := testWorld(t)
	for _, name := range []string{"makro.co.za", "geniusdisplay.com", "fasttech.com", "pbskids.com", "airbnb.fr"} {
		d, ok := w.Lookup(name)
		if !ok {
			t.Fatalf("cameo %s missing", name)
		}
		if d.Name != name {
			t.Fatalf("lookup mismatch for %s", name)
		}
	}
}

func TestMakroPolicyFlip(t *testing.T) {
	w := testWorld(t)
	d, _ := w.Lookup("makro.co.za")
	rule := d.GeoRules[CloudFront]
	if rule == nil {
		t.Fatal("makro has no CloudFront rule")
	}
	loc := geo.Location{Country: rule.CountryList()[0]}
	if _, ok := d.GeoBlockedIn(loc, 0); !ok {
		t.Fatal("makro should block at clock 0")
	}
	if _, ok := d.GeoBlockedIn(loc, 5); ok {
		t.Fatal("makro should have lifted its policy by clock 5")
	}
}

func TestGeniusDisplay(t *testing.T) {
	w := testWorld(t)
	d, _ := w.Lookup("geniusdisplay.com")
	if p, ok := d.GeoBlockedIn(geo.Location{Country: "RU"}, 0); !ok || p != OriginNginx {
		t.Fatalf("geniusdisplay in Russia: provider=%v ok=%v", p, ok)
	}
	if p, ok := d.GeoBlockedIn(geo.Location{Country: "UA", Region: geo.RegionCrimea}, 0); !ok || p != AppEngine {
		t.Fatalf("geniusdisplay in Crimea: provider=%v ok=%v", p, ok)
	}
	if _, ok := d.GeoBlockedIn(geo.Location{Country: "UA"}, 0); ok {
		t.Fatal("geniusdisplay must not block mainland Ukraine")
	}
}

func TestAirbnbCameo(t *testing.T) {
	w := testWorld(t)
	d, _ := w.Lookup("airbnb.fr")
	for _, cc := range []geo.CountryCode{"IR", "SY", "KP"} {
		if _, ok := d.GeoBlockedIn(geo.Location{Country: cc}, 0); !ok {
			t.Errorf("airbnb.fr should block %s", cc)
		}
		if !d.ExplicitGeoBlockedIn(geo.Location{Country: cc}, 0) {
			t.Errorf("airbnb.fr block in %s should be explicit", cc)
		}
	}
	if _, ok := d.GeoBlockedIn(geo.Location{Country: "SD"}, 0); ok {
		t.Error("airbnb does not block Sudan")
	}
	if _, ok := d.GeoBlockedIn(geo.Location{Country: "UA", Region: geo.RegionCrimea}, 0); !ok {
		t.Error("airbnb should block Crimea")
	}
}

func TestGAEPlatformBlock(t *testing.T) {
	w := testWorld(t)
	var gae *Domain
	for _, d := range w.Top10K() {
		if d.FrontedBy(AppEngine) && d.GAEHosted {
			gae = d
			break
		}
	}
	if gae == nil {
		t.Skip("no GAE-hosted domain at this scale")
	}
	for _, cc := range []geo.CountryCode{"IR", "SY", "SD", "CU", "KP"} {
		if p, ok := gae.GeoBlockedIn(geo.Location{Country: cc}, 0); !ok || p != AppEngine {
			t.Errorf("GAE-hosted %s should platform-block %s", gae.Name, cc)
		}
	}
	if _, ok := gae.GeoBlockedIn(geo.Location{Country: "DE"}, 0); ok {
		t.Error("GAE platform block must not hit Germany")
	}
}

func TestGeoblockCalibrationShape(t *testing.T) {
	// At test scale (~1,000 domains) the unique-geoblocker count should
	// land near 10 (paper: 100 of 10,000) and the most-blocked countries
	// must be the sanctioned four.
	w := testWorld(t)
	perCountry := map[geo.CountryCode]int{}
	unique := 0
	for _, d := range w.Top10K() {
		if category.IsRisky(d.Category) || d.OnCitizenLab {
			continue
		}
		blockedAnywhere := false
		for _, cc := range w.Geo.Measurable() {
			if d.ExplicitGeoBlockedIn(geo.Location{Country: cc}, 0) {
				perCountry[cc]++
				blockedAnywhere = true
			}
		}
		if blockedAnywhere {
			unique++
		}
	}
	if unique < 4 || unique > 40 {
		t.Fatalf("unique explicit geoblockers = %d, want ~10 at 0.1 scale", unique)
	}
	for _, sanc := range []geo.CountryCode{"IR", "SY", "SD", "CU"} {
		for _, normal := range []geo.CountryCode{"DE", "FR", "JP"} {
			if perCountry[sanc] < perCountry[normal] {
				t.Errorf("%s (%d) should out-block %s (%d)", sanc, perCountry[sanc], normal, perCountry[normal])
			}
		}
	}
}

func TestCustomerPopulation(t *testing.T) {
	w := testWorld(t)
	cfg := w.Cfg
	var total int
	for _, p := range []Provider{Cloudflare, CloudFront, Akamai, Incapsula, AppEngine} {
		total += cfg.scaled(cfg.Top1MProviderCounts[p])
	}
	if got := len(w.CustomerRanks()); got != total {
		t.Fatalf("customer count = %d, want %d", got, total)
	}
	for _, r := range w.CustomerRanks() {
		if r <= len(w.Top10K()) || r > cfg.Top1MRanks {
			t.Fatalf("customer rank %d out of band", r)
		}
	}
}

func TestDualProviderCustomersExist(t *testing.T) {
	w := testWorld(t)
	dual := 0
	for _, r := range w.CustomerRanks() {
		if len(w.customers[r].providers) == 2 {
			dual++
		}
	}
	want := w.Cfg.scaled(w.Cfg.Top1MDualProvider)
	// Some dual assignments collapse when the drawn second provider
	// equals the first.
	if dual < want/2 || dual > want {
		t.Fatalf("dual-provider customers = %d, want ~%d", dual, want)
	}
}

// TestCameoIndependentOfOrder materializes every Top-1M customer of one
// world in ascending rank order and of its twin in descending order:
// each rank must get the same name in both, and the zales.com cameo
// must land on the lowest-ranked Incapsula+Akamai customer. The world
// holds several such customers, so a cameo named by materialization
// order would move.
func TestCameoIndependentOfOrder(t *testing.T) {
	cfg := TestConfig()
	cfg.Scale, cfg.Seed = 0.05, 7
	up, down := Generate(cfg), Generate(cfg)
	ranks := up.CustomerRanks()
	cameo, candidates := 0, 0
	for _, r := range ranks {
		if p := up.customers[r].providers; len(p) == 2 && p[0] == Incapsula && p[1] == Akamai {
			if cameo == 0 {
				cameo = r
			}
			candidates++
		}
	}
	if candidates < 2 {
		t.Fatalf("the world holds %d Incapsula+Akamai customers, want several", candidates)
	}
	names := make(map[int]string, len(ranks))
	for _, r := range ranks {
		names[r] = up.DomainAt(r).Name
	}
	for i := len(ranks) - 1; i >= 0; i-- {
		if r := ranks[i]; down.DomainAt(r).Name != names[r] {
			t.Fatalf("rank %d is %s materialized ascending, %s descending", r, names[r], down.DomainAt(r).Name)
		}
	}
	if names[cameo] != "zales.com" {
		t.Fatalf("the lowest Incapsula+Akamai customer, rank %d, is %s", cameo, names[cameo])
	}
	for r, name := range names {
		if name == "zales.com" && r != cameo {
			t.Fatalf("rank %d is zales.com too", r)
		}
	}
}

func TestDomainAtLazyConsistent(t *testing.T) {
	w := testWorld(t)
	rank := w.CustomerRanks()[3]
	a := w.DomainAt(rank)
	b := w.DomainAt(rank)
	if a != b {
		t.Fatal("customer domains must be cached")
	}
	if _, ok := w.Lookup(a.Name); !ok {
		t.Fatal("materialized customer must be resolvable by name")
	}
}

func TestSyntheticDomainDeterministic(t *testing.T) {
	w := testWorld(t)
	// Find a non-customer long-tail rank.
	rank := w.Cfg.Top1MRanks - 1
	for {
		if _, ok := w.customers[rank]; !ok {
			break
		}
		rank--
	}
	a := w.DomainAt(rank)
	b := w.DomainAt(rank)
	if a.Name != b.Name || a.Category != b.Category || a.Origin.BaseLen != b.Origin.BaseLen {
		t.Fatal("synthetic domains must be deterministic")
	}
	if d, ok := w.Lookup(a.Name); !ok || d.Name != a.Name {
		t.Fatal("synthetic domain must resolve by name")
	}
}

func TestResolveA(t *testing.T) {
	w := testWorld(t)
	if _, ok := w.ResolveA("no-such-domain.invalid"); ok {
		t.Fatal("unknown domain must NXDOMAIN")
	}
	nets := GAENetblocks()
	inGAE := func(ip geo.IP) bool {
		for _, r := range nets {
			if ip >= r.Lo && ip < r.Hi {
				return true
			}
		}
		return false
	}
	gaeSeen, otherSeen := false, false
	for _, d := range w.Top10K()[:500] {
		ip, ok := w.ResolveA(d.Name)
		if !ok {
			t.Fatalf("ResolveA(%s) failed", d.Name)
		}
		if d.Providers[0] == AppEngine {
			gaeSeen = true
			if !inGAE(ip) {
				t.Fatalf("%s is AppEngine but resolves outside Google netblocks", d.Name)
			}
		} else {
			otherSeen = true
			if inGAE(ip) {
				t.Fatalf("%s is not AppEngine but resolves into Google netblocks", d.Name)
			}
		}
	}
	if !otherSeen {
		t.Fatal("test did not exercise non-GAE domains")
	}
	_ = gaeSeen
}

func TestNSDetection(t *testing.T) {
	w := testWorld(t)
	cfNS, akNS := 0, 0
	for _, d := range w.Top10K() {
		ns := w.NS(d.Name)
		for _, s := range ns {
			if d.NSDetectable && d.Providers[0] == Cloudflare && s == "ada.ns.cloudflare.com" {
				cfNS++
				break
			}
			if d.NSDetectable && d.Providers[0] == Akamai && s == "a1-64.akam.net" {
				akNS++
				break
			}
		}
		if !d.NSDetectable && len(ns) > 0 && ns[0] != "ns1.dns-host.example" {
			t.Fatalf("%s leaks CDN NS without NSDetectable", d.Name)
		}
	}
	if akNS == 0 {
		t.Fatal("no Akamai customers detectable via NS; §3.1 method would find nothing")
	}
}

func TestCitizenLabList(t *testing.T) {
	w := testWorld(t)
	if w.CitizenLab.Len() < 50 {
		t.Fatalf("citizen lab list too small: %d", w.CitizenLab.Len())
	}
	onList := 0
	for _, d := range w.Top10K() {
		if d.OnCitizenLab {
			if !w.CitizenLab.Contains(d.Name) {
				t.Fatalf("%s flagged but not on list", d.Name)
			}
			onList++
		}
	}
	if onList == 0 {
		t.Fatal("no population overlap with the Citizen Lab list")
	}
}

func TestCensorshipAssigned(t *testing.T) {
	w := testWorld(t)
	censored := 0
	for _, d := range w.Top10K() {
		for cc := range d.CensoredIn {
			if censorAggressiveness[cc] == 0 {
				t.Fatalf("%s censored in non-censoring country %s", d.Name, cc)
			}
			censored++
		}
	}
	if censored == 0 {
		t.Fatal("no censorship in the world; the confound cannot be exercised")
	}
}

func TestClock(t *testing.T) {
	w := testWorld(t)
	if w.Clock() != 0 {
		t.Fatal("clock must start at 0")
	}
	w.AdvanceClock(3)
	if w.Clock() != 3 {
		t.Fatal("clock did not advance")
	}
}

func TestGeoRuleApplies(t *testing.T) {
	r := &GeoRule{
		Action:      ActionBlock,
		Countries:   map[geo.CountryCode]bool{"IR": true},
		BlockCrimea: true,
		ActiveUntil: 2,
	}
	if !r.Applies(geo.Location{Country: "IR"}, 0) {
		t.Fatal("rule should apply in Iran at clock 0")
	}
	if r.Applies(geo.Location{Country: "IR"}, 2) {
		t.Fatal("rule expired at clock 2")
	}
	if !r.Applies(geo.Location{Country: "UA", Region: geo.RegionCrimea}, 1) {
		t.Fatal("rule should apply in Crimea")
	}
	if r.Applies(geo.Location{Country: "UA"}, 1) {
		t.Fatal("rule should not apply in mainland Ukraine")
	}
}

func TestHostingAndFrontedBy(t *testing.T) {
	d := &Domain{Providers: []Provider{Cloudflare}}
	if d.Hosting() != OriginApache {
		t.Fatal("CDN-only chain defaults to apache hosting")
	}
	d2 := &Domain{Providers: []Provider{OriginNginx, AppEngine}}
	if d2.Hosting() != OriginNginx {
		t.Fatal("hosting should be the non-CDN provider")
	}
	if !d2.FrontedBy(AppEngine) || d2.FrontedBy(Cloudflare) {
		t.Fatal("FrontedBy broken")
	}
}

func TestActionString(t *testing.T) {
	if ActionBlock.String() != "block" || ActionCaptcha.String() != "captcha" || ActionJS.String() != "js_challenge" {
		t.Fatal("Action.String broken")
	}
}

func TestParseSyntheticRank(t *testing.T) {
	name := SyntheticRankName(54321, "com")
	r, ok := parseSyntheticRank(name)
	if !ok || r != 54321 {
		t.Fatalf("parse(%q) = %d, %v", name, r, ok)
	}
	if _, ok := parseSyntheticRank("example.com"); ok {
		t.Fatal("non-synthetic name must not parse")
	}
}

func TestCitizenLabExtrasMaterialized(t *testing.T) {
	w := testWorld(t)
	extras := w.CitizenLabExtras()
	if len(extras) == 0 {
		t.Fatal("no test-list extras")
	}
	geoblockers := 0
	censored := 0
	for _, d := range extras {
		if !w.CitizenLab.Contains(d.Name) {
			t.Fatalf("extra %s not on the list", d.Name)
		}
		if _, ok := w.Lookup(d.Name); !ok {
			t.Fatalf("extra %s not servable", d.Name)
		}
		if d.Rank != 0 {
			t.Fatalf("extra %s has an Alexa rank", d.Name)
		}
		for _, cc := range w.Geo.Measurable() {
			if d.ExplicitGeoBlockedIn(geo.Location{Country: cc}, 0) {
				geoblockers++
				break
			}
		}
		if len(d.CensoredIn) > 0 {
			censored++
		}
	}
	// The list geoblocks at a much higher rate than popular sites
	// (paper: 9% of the global list).
	frac := float64(geoblockers) / float64(len(extras))
	if frac < 0.03 || frac > 0.25 {
		t.Fatalf("test-list geoblocker fraction %.3f, want ~0.09", frac)
	}
	if censored == 0 {
		t.Fatal("test-list entries should be heavily censored")
	}
}

func TestJunkRateAssigned(t *testing.T) {
	w := testWorld(t)
	withJunk := 0
	for _, d := range w.Top10K() {
		if d.JunkRate > 0 {
			withJunk++
			if d.JunkRate > w.Cfg.JunkRateMax {
				t.Fatalf("junk rate %v exceeds max", d.JunkRate)
			}
		}
	}
	frac := float64(withJunk) / float64(len(w.Top10K()))
	if frac < 0.2 || frac > 0.5 {
		t.Fatalf("junk-prone fraction %.2f, want ~0.35", frac)
	}
}

func TestBlocksProxiesAssigned(t *testing.T) {
	cfg := TestConfig()
	cfg.Scale = 0.5 // enough Akamai customers for a stable rate
	w := Generate(cfg)
	akamai, blocking := 0, 0
	for _, d := range w.Top10K() {
		if d.FrontedBy(Akamai) {
			akamai++
			if d.BlocksProxies {
				blocking++
			}
		}
	}
	if akamai == 0 || blocking == 0 {
		t.Fatalf("akamai=%d proxy-blocking=%d", akamai, blocking)
	}
	frac := float64(blocking) / float64(akamai)
	if frac > 0.12 {
		t.Fatalf("proxy-blocking Akamai fraction %.3f too high (want ~0.037)", frac)
	}
}

func TestNameGeneration(t *testing.T) {
	g := newNameGen(statsRNG())
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		tld := g.tld()
		if tld == "" {
			t.Fatal("empty TLD")
		}
		name := g.next(tld)
		if seen[name] {
			t.Fatalf("duplicate name %q", name)
		}
		seen[name] = true
	}
}

func TestNameReserve(t *testing.T) {
	g := newNameGen(statsRNG())
	if !g.reserve("airbnb.fr") {
		t.Fatal("first reserve must succeed")
	}
	if g.reserve("airbnb.fr") {
		t.Fatal("second reserve must fail")
	}
}

func TestTLDOf(t *testing.T) {
	if tldOf("a.b.co.za") != "za" || tldOf("plain") != "" {
		t.Fatal("tldOf broken")
	}
}

func statsRNG() *stats.RNG { return stats.NewRNG(77) }

func TestLegal451Cameo(t *testing.T) {
	w := testWorld(t)
	d, ok := w.Lookup("lexpublica.com")
	if !ok || !d.Legal451 {
		t.Fatal("lexpublica.com cameo missing or unflagged")
	}
	if _, blocked := d.GeoBlockedIn(geo.Location{Country: "UA", Region: geo.RegionCrimea}, 0); !blocked {
		t.Fatal("lexpublica should block Crimea")
	}
	if _, blocked := d.GeoBlockedIn(geo.Location{Country: "UA"}, 0); blocked {
		t.Fatal("lexpublica must not block mainland Ukraine")
	}
	if _, blocked := d.GeoBlockedIn(geo.Location{Country: "IR"}, 0); blocked {
		t.Fatal("lexpublica blocks Crimea only")
	}
}
