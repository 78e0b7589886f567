package cdnid

import (
	"testing"

	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

var testWorld = worldgen.Generate(worldgen.TestConfig())

func TestGAERangesMatchWorld(t *testing.T) {
	id := NewIdentifier(testWorld)
	got := id.GAERanges()
	want := worldgen.GAENetblocks()
	if len(got) != len(want) {
		t.Fatalf("walk found %d ranges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Lo != want[i].Lo || got[i].Hi != want[i].Hi {
			t.Fatalf("range %d mismatch", i)
		}
	}
}

func TestScanRanksTop10K(t *testing.T) {
	id := NewIdentifier(testWorld)
	pops := id.ScanRanks(1, len(testWorld.Top10K()))

	// Ground truth counts per provider among responsive domains.
	truth := map[worldgen.Provider]int{}
	for _, d := range testWorld.Top10K() {
		if d.Unreachable {
			continue
		}
		for _, p := range d.Providers {
			if p.IsCDN() && p != worldgen.Baidu && p != worldgen.Soasta {
				truth[p]++
			}
		}
	}
	for _, p := range []worldgen.Provider{
		worldgen.Cloudflare, worldgen.CloudFront, worldgen.Incapsula,
		worldgen.Akamai, worldgen.AppEngine,
	} {
		got := len(pops.ByProvider[p])
		want := truth[p]
		// Bot defenses can hide a few Akamai domains from the prober;
		// allow a small deficit, never an excess.
		if got > want || got < want-want/6-3 {
			t.Errorf("%s: identified %d, ground truth %d", p, got, want)
		}
	}
}

func TestScanFindsOnlyRealCustomers(t *testing.T) {
	id := NewIdentifier(testWorld)
	pops := id.ScanRanks(1, 300)
	for p, ranks := range pops.ByProvider {
		for _, r := range ranks {
			d := testWorld.DomainAt(r)
			if !d.FrontedBy(p) {
				t.Errorf("rank %d (%s) misidentified as %s", r, d.Name, p)
			}
		}
	}
}

func TestScanRanksDeterministic(t *testing.T) {
	id := NewIdentifier(testWorld)
	a := id.ScanRanks(1, 200)
	b := id.ScanRanks(1, 200)
	for p := range a.ByProvider {
		if len(a.ByProvider[p]) != len(b.ByProvider[p]) {
			t.Fatalf("%s differs between runs", p)
		}
		for i := range a.ByProvider[p] {
			if a.ByProvider[p][i] != b.ByProvider[p][i] {
				t.Fatalf("%s rank %d differs", p, i)
			}
		}
	}
}

func TestDualProviderDetection(t *testing.T) {
	// Scan a slice of the Top-1M customer space and confirm dual
	// detections correspond to dual-provider domains.
	ranks := testWorld.CustomerRanks()
	if len(ranks) < 200 {
		t.Skip("not enough customers")
	}
	id := NewIdentifier(testWorld)
	lo, hi := ranks[0], ranks[199]
	pops := id.ScanRanks(lo, hi)
	for _, r := range pops.Dual {
		d := testWorld.DomainAt(r)
		if len(d.Providers) < 2 && !d.GAEHosted {
			t.Errorf("rank %d (%s) flagged dual but has providers %v", r, d.Name, d.Providers)
		}
	}
}

func TestNSPopulationsConservative(t *testing.T) {
	id := NewIdentifier(testWorld)
	pops := id.NSPopulations(1, len(testWorld.Top10K()))

	full := id.ScanRanks(1, len(testWorld.Top10K()))
	for _, p := range []worldgen.Provider{worldgen.Cloudflare, worldgen.Akamai} {
		ns := len(pops[p])
		hdr := len(full.ByProvider[p])
		if ns == 0 {
			t.Errorf("NS method found no %s customers", p)
		}
		if ns >= hdr && p == worldgen.Cloudflare {
			t.Errorf("NS method should see only a fraction of %s customers (ns=%d, header=%d)", p, ns, hdr)
		}
		for _, r := range pops[p] {
			if !testWorld.DomainAt(r).FrontedBy(p) {
				t.Errorf("NS method misidentified rank %d as %s", r, p)
			}
		}
	}
}

func TestPopulationsTotal(t *testing.T) {
	p := &Populations{ByProvider: map[worldgen.Provider][]int{
		worldgen.Cloudflare: {1, 2, 3},
		worldgen.Akamai:     {3, 4},
	}}
	if p.Total() != 4 {
		t.Fatalf("total = %d", p.Total())
	}
}

func TestFullRankSpaceScan(t *testing.T) {
	// Exercise the paper's actual discovery method: walk every rank in
	// the (shrunken) rank space, including the non-customer long tail.
	cfg := worldgen.TestConfig()
	cfg.Scale = 0.01
	cfg.Top1MRanks = 5000
	w := worldgen.Generate(cfg)
	id := NewIdentifier(w)
	pops := id.ScanRanks(1, cfg.Top1MRanks)

	// Every discovered rank must really be a customer…
	for p, ranks := range pops.ByProvider {
		for _, r := range ranks {
			if !w.DomainAt(r).FrontedBy(p) {
				t.Fatalf("rank %d misattributed to %s", r, p)
			}
		}
	}
	// …and the scan must find nearly all of them.
	truth := 0
	for _, r := range w.CustomerRanks() {
		if !w.DomainAt(r).Unreachable {
			truth++
		}
	}
	if got := pops.Total(); got < truth*9/10 {
		t.Fatalf("full scan found %d customers of %d", got, truth)
	}
}

// TestClassifyAllocs pins the cost of provider discovery's redirect
// walk on a domain two redirects deep. Each of its three hops resolves
// into the walk's one destination, so the walk allocates one Dest, not
// one per hop as a probe that carries none does; everything else it
// allocates is what it reads of the answers: each hop's rendered
// headers, each redirect's Location and parsed URL, and the evidence.
func TestClassifyAllocs(t *testing.T) {
	id := NewIdentifier(testWorld)
	gae := id.GAERanges()
	res := &vnet.Resolver{World: testWorld}
	stack := vnet.NewStack(testWorld, id.Vantage)
	for _, d := range testWorld.Top10K() {
		if d.RedirectHops != 2 || d.Unreachable || d.RedirectLoop {
			continue
		}
		const want = 31 // 33 when each hop allocates a Dest of its own
		if n := testing.AllocsPerRun(100, func() { id.classifyDomain(stack, res, d, gae) }); n != want {
			t.Fatalf("classifying %s allocates %.0f times, want %d", d.Name, n, want)
		}
		return
	}
	t.Fatal("the test world holds no domain two redirects deep")
}
