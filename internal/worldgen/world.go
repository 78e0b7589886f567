package worldgen

import (
	"sort"
	"sync"
	"sync/atomic"

	"geoblock/internal/citizenlab"
	"geoblock/internal/geo"
	"geoblock/internal/stats"
)

// World is the fully generated simulated web. The Top-10K population is
// materialized eagerly; Top-1M CDN customers are assigned eagerly (so
// population counts are exact) but their full Domain records are built
// lazily on first access, and non-customer long-tail domains are
// synthesized on demand without caching. All methods are safe for
// concurrent use.
type World struct {
	Cfg        Config
	Geo        *geo.DB
	CitizenLab *citizenlab.List

	top10k []*Domain
	byName map[string]*Domain

	customers     map[int]customerSeed // rank → provider assignment
	customerRanks []int                // sorted

	mu        sync.Mutex
	lazy      map[int]*Domain
	lazyNames map[string]*Domain

	clExtras []*Domain // test-list domains outside the rank space

	// The country lists access policies draw from, computed once for
	// the eager population and every lazily built customer alike.
	highRisk   []geo.CountryCode // the high-risk countries
	measurable []geo.CountryCode // Geo.Measurable()

	clock atomic.Int64
	seed  uint64
}

// customerSeed is the eager part of a Top-1M CDN customer: everything
// the population-identification scan can observe without a full build.
type customerSeed struct {
	providers    []Provider
	nsDetectable bool
	gaeHosted    bool
	cameo        bool // the dual-provider customer named zales.com
}

// infrastructure address space: providers live above the per-country
// allocation so client and server addresses never collide.
const (
	infraBase geo.IP = 0xE0000000
	infraSlot geo.IP = 0x00100000 // /12 per provider
	gaeBlocks        = 16         // App Engine netblocks (paper found 65)
)

var infraOrder = []Provider{
	Cloudflare, Akamai, CloudFront, AppEngine, Incapsula, Baidu, Soasta,
	OriginNginx, OriginVarnish, OriginApache,
}

func infraPool(p Provider) (geo.IP, geo.IP) {
	for i, q := range infraOrder {
		if q == p {
			lo := infraBase + geo.IP(i)*infraSlot
			return lo, lo + infraSlot
		}
	}
	lo := infraBase + geo.IP(len(infraOrder))*infraSlot
	return lo, lo + infraSlot
}

// GAENetblocks returns the Google App Engine address blocks the
// recursive netblock lookup of §5.1.1 discovers.
func GAENetblocks() []geo.Range {
	lo, hi := infraPool(AppEngine)
	span := (hi - lo) / gaeBlocks
	out := make([]geo.Range, gaeBlocks)
	for i := range out {
		out[i] = geo.Range{Lo: lo + geo.IP(i)*span, Hi: lo + geo.IP(i+1)*span}
	}
	return out
}

// Top10K returns the popular-site population in rank order.
func (w *World) Top10K() []*Domain { return w.top10k }

// CitizenLabExtras returns the materialized test-list domains that live
// outside the Alexa rank space.
func (w *World) CitizenLabExtras() []*Domain { return w.clExtras }

// CustomerRanks returns the ranks (beyond the Top 10K) of all Top-1M
// CDN customers, sorted.
func (w *World) CustomerRanks() []int { return w.customerRanks }

// Clock returns the current virtual time; AdvanceClock moves it
// forward. The pipeline advances the clock between measurement phases
// so that mid-study policy changes (§4.2) can manifest.
func (w *World) Clock() int64          { return w.clock.Load() }
func (w *World) AdvanceClock(by int64) { w.clock.Add(by) }

// DomainAt returns the domain at the given 1-based rank, materializing
// it if necessary. Ranks outside [1, Top1MRanks] return nil.
func (w *World) DomainAt(rank int) *Domain {
	if rank < 1 || rank > w.Cfg.Top1MRanks {
		return nil
	}
	if rank <= len(w.top10k) {
		return w.top10k[rank-1]
	}
	if seed, ok := w.customers[rank]; ok {
		return w.customerDomain(rank, seed)
	}
	// Long-tail non-customer: synthesized deterministically, not cached.
	return w.syntheticDomain(rank)
}

// Lookup resolves a domain name to its record.
func (w *World) Lookup(name string) (*Domain, bool) {
	if d, ok := w.byName[name]; ok {
		return d, true
	}
	w.mu.Lock()
	d, ok := w.lazyNames[name]
	w.mu.Unlock()
	if ok {
		return d, true
	}
	if rank, ok := parseSyntheticRank(name); ok {
		if d := w.DomainAt(rank); d != nil && d.Name == name {
			return d, true
		}
	}
	return nil, false
}

// customerDomain materializes (and caches) a Top-1M customer.
func (w *World) customerDomain(rank int, seed customerSeed) *Domain {
	w.mu.Lock()
	defer w.mu.Unlock()
	if d, ok := w.lazy[rank]; ok {
		return d
	}
	d := w.buildCustomer(rank, seed)
	w.lazy[rank] = d
	w.lazyNames[d.Name] = d
	return d
}

// syntheticDomain builds a throwaway long-tail origin-only domain. It
// is deterministic in rank and intentionally uncached: the population
// scan touches a million of them exactly once.
func (w *World) syntheticDomain(rank int) *Domain {
	rng := stats.NewRNG(w.seed).Fork("tail").Fork(itoa(rank))
	tld := tldWeightedPick(rng)
	name := SyntheticRankName(rank, tld)
	hosting := OriginApache
	switch {
	case rng.Bool(0.45):
		hosting = OriginNginx
	case rng.Bool(0.04):
		hosting = OriginVarnish
	}
	return &Domain{
		Name:      name,
		Rank:      rank,
		TLD:       tld,
		Category:  pickCategoryTop1M(rng),
		Providers: []Provider{hosting},
		Origin:    newOrigin(name, rng),
		GeoRules:  map[Provider]*GeoRule{},
	}
}

// ResolveA returns the IPv4 address name resolves to: an address inside
// the fronting provider's infrastructure pool (App Engine-detected
// domains land inside the Google netblocks). ok is false for NXDOMAIN.
func (w *World) ResolveA(name string) (geo.IP, bool) {
	d, ok := w.Lookup(name)
	if !ok {
		return 0, false
	}
	p := d.Providers[0]
	lo, hi := infraPool(p)
	span := uint64(hi - lo)
	h := stats.Mix64(stats.Hash(name))
	return lo + geo.IP(h%span), true
}

// NS returns the authoritative nameserver suffixes for name — the
// DNS-based customer discovery of §3.1 keys on these. Only NSDetectable
// customers expose their CDN here.
func (w *World) NS(name string) []string {
	d, ok := w.Lookup(name)
	if !ok {
		return nil
	}
	if d.NSDetectable {
		switch d.Providers[0] {
		case Cloudflare:
			return []string{"ada.ns.cloudflare.com", "bob.ns.cloudflare.com"}
		case Akamai:
			return []string{"a1-64.akam.net", "a9-67.akam.net"}
		}
	}
	return []string{"ns1.dns-host.example", "ns2.dns-host.example"}
}

func itoa(n int) string {
	// strconv-free tiny helper keeps the hot path allocation-light.
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// sortedRanks returns the keys of m ascending.
func sortedRanks(m map[int]customerSeed) []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
