// Package censor simulates nation-state network censorship: the
// confound the paper's methodology must separate from server-side
// geoblocking. Each censoring country disrupts access to its censored
// domains with its documented mechanism mix — injected TCP resets,
// poisoned DNS answers, injected HTTP block pages, or induced timeouts
// (§8 surveys these per country).
//
// Censorship is a property of the *network between* a client in the
// censoring country and the site; the serving stack never sees the
// request. Mechanisms are stable per (country, domain) pair — a real
// censor's decision does not flip between consecutive probes.
package censor

import (
	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// Mechanism is how a censor disrupts a connection.
type Mechanism int

const (
	// None: the request passes.
	None Mechanism = iota
	// RST: an injected TCP reset kills the connection.
	RST
	// DNSPoison: the resolver returns a bogus answer; the connection
	// fails.
	DNSPoison
	// BlockPage: an HTTP 403 block page is injected in-path.
	BlockPage
	// Timeout: packets are silently dropped.
	Timeout
)

func (m Mechanism) String() string {
	switch m {
	case None:
		return "none"
	case RST:
		return "rst"
	case DNSPoison:
		return "dns"
	case BlockPage:
		return "blockpage"
	case Timeout:
		return "timeout"
	}
	return "unknown"
}

// mechanismMix is each censor's preferred techniques, as cumulative
// weights over [RST, DNSPoison, BlockPage, Timeout].
var mechanismMix = map[geo.CountryCode][4]float64{
	"CN": {0.45, 0.85, 0.85, 1.0}, // GFW: RST + DNS poisoning
	"IR": {0.05, 0.10, 0.90, 1.0}, // Iran: injected HTTP block pages
	"RU": {0.55, 0.65, 0.95, 1.0},
	"TR": {0.10, 0.20, 0.95, 1.0},
	"PK": {0.10, 0.70, 0.90, 1.0}, // Pakistan: DNS-heavy
	"SA": {0.10, 0.20, 0.95, 1.0},
	"SY": {0.30, 0.40, 0.80, 1.0},
	"VN": {0.40, 0.70, 0.90, 1.0},
	"EG": {0.50, 0.60, 0.70, 1.0},
	"AE": {0.10, 0.20, 0.95, 1.0},
	"ID": {0.20, 0.70, 0.95, 1.0},
	"BY": {0.40, 0.60, 0.90, 1.0},
}

// Check returns the mechanism (or None) applied to a request from loc
// for domain d. The answer is a pure function of (domain, country).
func Check(d *worldgen.Domain, loc geo.Location) Mechanism {
	if d == nil || len(d.CensoredIn) == 0 || !d.CensoredIn[loc.Country] {
		return None
	}
	mix, ok := mechanismMix[loc.Country]
	if !ok {
		return BlockPage
	}
	// Stable draw per (country, domain).
	h := stats.Mix64(stats.Hash(string(loc.Country)) ^ stats.Hash(d.Name))
	x := float64(h>>11) / (1 << 53)
	switch {
	case x < mix[0]:
		return RST
	case x < mix[1]:
		return DNSPoison
	case x < mix[2]:
		return BlockPage
	default:
		return Timeout
	}
}

// CensorsAnything reports whether cc operates a national filter at all.
func CensorsAnything(cc geo.CountryCode) bool {
	_, ok := mechanismMix[cc]
	return ok
}
