// Package geo models the geographic substrate of the simulated
// Internet: the country inventory, a deterministic IPv4 allocation, and
// the GeoIP lookup that CDN edges use to make geoblocking decisions.
//
// The paper's methodology depends on client geolocation twice: CDNs
// geolocate the client IP to apply country-scoped rules, and the
// measurement platform geolocates its own exits to label samples. Both
// sides consult this package; small, controlled disagreements between
// an exit's claimed and actual location reproduce the geolocation
// errors the paper cites as one source of <100% block-page agreement.
package geo

import (
	"fmt"
	"net/netip"
	"sort"
)

// IP is a 32-bit address in the simulated IPv4 space.
type IP uint32

// Addr converts the simulated address into a netip.Addr for display and
// for transporting through standard HTTP plumbing.
func (ip IP) Addr() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)})
}

// ParseIP converts a netip.Addr back into a simulated IP. Only IPv4
// addresses are representable.
func ParseIP(a netip.Addr) (IP, error) {
	if !a.Is4() {
		return 0, fmt.Errorf("geo: %v is not an IPv4 address", a)
	}
	b := a.As4()
	return IP(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])), nil
}

func (ip IP) String() string { return ip.Addr().String() }

// Range is a half-open [Lo, Hi) span of the simulated address space
// allocated to one country, optionally tagged with a sub-national
// region (Crimea).
type Range struct {
	Lo, Hi  IP
	Country CountryCode
	Region  string
}

// Location is the result of a GeoIP lookup.
type Location struct {
	Country CountryCode
	Region  string // "" except for special regions such as Crimea
}

// DB is the immutable geographic database: countries plus the IPv4
// allocation. Construct one with NewDB; it is safe for concurrent use.
type DB struct {
	countries []Country
	byCode    map[CountryCode]*Country
	ranges    []Range // sorted by Lo, non-overlapping
	primary   map[CountryCode]Range
	crimea    Range
}

// allocation constants: the usable space is carved between allocBase
// and allocTop; everything outside resolves to no country (bogons).
const (
	allocBase IP = 0x08000000 // 8.0.0.0
	allocTop  IP = 0xdf000000 // 223.0.0.0
)

// NewDB builds the database. The allocation is a pure function of the
// country table: each country receives a contiguous block proportional
// to its exit inventory (with a floor so every country has room for a
// few thousand hosts), and Ukraine's block reserves its top slice for
// the Crimea region.
func NewDB() *DB {
	db := &DB{byCode: make(map[CountryCode]*Country, len(countries))}
	db.countries = make([]Country, len(countries))
	copy(db.countries, countries)
	var totalWeight uint64
	for i := range db.countries {
		c := &db.countries[i]
		db.byCode[c.Code] = c
		totalWeight += allocWeight(c)
	}
	space := uint64(allocTop - allocBase)
	cursor := allocBase
	for i := range db.countries {
		c := &db.countries[i]
		size := IP(space * allocWeight(c) / totalWeight)
		if size < 4096 {
			size = 4096
		}
		lo, hi := cursor, cursor+size
		cursor = hi
		if c.Code == "UA" {
			// Reserve the top eighth of Ukraine's block for Crimea so
			// region-granular blocking (App Engine, Airbnb) is testable.
			crimeaLo := hi - (hi-lo)/8
			db.ranges = append(db.ranges,
				Range{Lo: lo, Hi: crimeaLo, Country: c.Code},
				Range{Lo: crimeaLo, Hi: hi, Country: c.Code, Region: RegionCrimea})
			continue
		}
		db.ranges = append(db.ranges, Range{Lo: lo, Hi: hi, Country: c.Code})
	}
	if cursor > allocTop {
		// The floor can only overflow if the country table grows far
		// beyond the real world's; fail loudly rather than alias space.
		panic("geo: address space exhausted")
	}
	sort.Slice(db.ranges, func(i, j int) bool { return db.ranges[i].Lo < db.ranges[j].Lo })
	db.primary = make(map[CountryCode]Range, len(db.countries))
	for _, r := range db.ranges {
		if r.Region == "" {
			db.primary[r.Country] = r
		} else if r.Region == RegionCrimea {
			db.crimea = r
		}
	}
	return db
}

func allocWeight(c *Country) uint64 {
	w := uint64(c.LuminatiExits)
	if w < 10 {
		w = 10
	}
	return w
}

// Countries returns the full country inventory in stable order.
func (db *DB) Countries() []Country { return db.countries }

// Country returns the record for code, or false if unknown.
func (db *DB) Country(code CountryCode) (Country, bool) {
	c, ok := db.byCode[code]
	if !ok {
		return Country{}, false
	}
	return *c, true
}

// Name returns the human-readable name for code, or the code itself if
// unknown (so table rendering never fails).
func (db *DB) Name(code CountryCode) string {
	if c, ok := db.byCode[code]; ok {
		return c.Name
	}
	return string(code)
}

// Measurable returns the codes of countries that have at least one
// residential exit and are not flaky — the 177-country study set.
func (db *DB) Measurable() []CountryCode {
	var out []CountryCode
	for i := range db.countries {
		c := &db.countries[i]
		if c.LuminatiExits > 0 && !c.Flaky {
			out = append(out, c.Code)
		}
	}
	return out
}

// Sanctioned returns the codes of comprehensively sanctioned countries.
func (db *DB) Sanctioned() []CountryCode {
	var out []CountryCode
	for i := range db.countries {
		if db.countries[i].Sanctioned {
			out = append(out, db.countries[i].Code)
		}
	}
	return out
}

// Locate performs the GeoIP lookup CDN edges use. The second return is
// false for addresses outside any allocated range.
func (db *DB) Locate(ip IP) (Location, bool) {
	r, ok := db.rangeAt(ip)
	if !ok {
		return Location{}, false
	}
	return Location{Country: r.Country, Region: r.Region}, true
}

// rangeAt returns the allocated range holding ip, false for addresses
// outside every range.
func (db *DB) rangeAt(ip IP) (Range, bool) {
	i := sort.Search(len(db.ranges), func(i int) bool { return db.ranges[i].Hi > ip })
	if i == len(db.ranges) || ip < db.ranges[i].Lo {
		return Range{}, false
	}
	return db.ranges[i], true
}

// RangeOf returns the primary (non-Crimea) allocated range for code.
func (db *DB) RangeOf(code CountryCode) (Range, bool) {
	r, ok := db.primary[code]
	return r, ok
}

// CrimeaRange returns the Crimea sub-range of Ukraine's allocation.
func (db *DB) CrimeaRange() Range { return db.crimea }

// HostIP returns the n-th host address inside code's primary range,
// wrapping within the range, so callers can mint as many distinct
// deterministic addresses as they need.
func (db *DB) HostIP(code CountryCode, n uint64) (IP, error) {
	r, ok := db.RangeOf(code)
	if !ok {
		return 0, fmt.Errorf("geo: no allocation for country %q", code)
	}
	span := uint64(proxyBoundary(r) - r.Lo)
	return r.Lo + IP(n%span), nil
}

// CrimeaHostIP mints the n-th host address inside the Crimea range.
func (db *DB) CrimeaHostIP(n uint64) IP {
	r := db.CrimeaRange()
	span := uint64(r.Hi - r.Lo)
	return r.Lo + IP(n%span)
}

// Ranges exposes the full allocation (for property tests and tooling).
func (db *DB) Ranges() []Range { return db.ranges }

// datacenterFraction reserves the top 1/32 of each country's primary
// range for datacenter/hosting address space. Residential exits are
// minted below it; VPSes and scanners inside it. Anti-abuse systems
// treat the two very differently.
const datacenterFraction = 32

// datacenterBoundary returns the first datacenter address of r.
func datacenterBoundary(r Range) IP {
	return r.Hi - (r.Hi-r.Lo)/datacenterFraction
}

// proxyFraction reserves the slice just below the datacenter space for
// residential addresses known to run proxy/VPN exit software (the
// Hola-style inventory): anti-abuse blacklists cover it wholesale.
const proxyFraction = 16

// proxyBoundary returns the first proxy-flagged address of r.
func proxyBoundary(r Range) IP {
	return datacenterBoundary(r) - (r.Hi-r.Lo)/proxyFraction
}

// ProxyExitIP mints the n-th address in code's proxy-flagged slice.
func (db *DB) ProxyExitIP(code CountryCode, n uint64) (IP, error) {
	r, ok := db.RangeOf(code)
	if !ok {
		return 0, fmt.Errorf("geo: no allocation for country %q", code)
	}
	lo := proxyBoundary(r)
	span := uint64(datacenterBoundary(r) - lo)
	return lo + IP(n%span), nil
}

// DatacenterIP mints the n-th datacenter address inside code's range.
func (db *DB) DatacenterIP(code CountryCode, n uint64) (IP, error) {
	r, ok := db.RangeOf(code)
	if !ok {
		return 0, fmt.Errorf("geo: no allocation for country %q", code)
	}
	lo := datacenterBoundary(r)
	span := uint64(r.Hi - lo)
	return lo + IP(n%span), nil
}

// Class is where an address stands on the address lists anti-abuse
// systems subscribe to: a set of the flags below, none for an ordinary
// residential address or one outside every country's primary range.
type Class uint8

const (
	// ProxyFlagged marks a residential address in a proxy-flagged slice,
	// the signal commercial blacklists give anti-abuse systems.
	ProxyFlagged Class = 1 << iota
	// Datacenter marks an address in a datacenter slice.
	Datacenter
	// Anonymizer marks a datacenter address on the (simulated) public
	// anonymizer/Tor-exit lists: a deterministic pseudo-membership over
	// datacenter address space.
	Anonymizer
)

// Classify returns ip's class, from the one range search that holds it.
func (db *DB) Classify(ip IP) Class {
	r, ok := db.rangeAt(ip)
	if !ok || r.Region != "" {
		return 0
	}
	switch {
	case ip >= datacenterBoundary(r):
		h := uint64(ip) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		if h%8 == 0 {
			return Datacenter | Anonymizer
		}
		return Datacenter
	case ip >= proxyBoundary(r):
		return ProxyFlagged
	}
	return 0
}

// IsProxyExit reports whether ip sits in a proxy-flagged residential
// slice.
func (db *DB) IsProxyExit(ip IP) bool { return db.Classify(ip)&ProxyFlagged != 0 }

// IsDatacenter reports whether ip falls in a datacenter slice.
func (db *DB) IsDatacenter(ip IP) bool { return db.Classify(ip)&Datacenter != 0 }

// IsAnonymizer reports whether ip appears on the public anonymizer
// lists.
func (db *DB) IsAnonymizer(ip IP) bool { return db.Classify(ip)&Anonymizer != 0 }
