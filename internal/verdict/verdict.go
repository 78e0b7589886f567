// Package verdict is the serving edge of the reproduction: an
// immutable, versioned snapshot of the full (domain × country)
// block-verdict matrix — the paper's end product (§4, Table 4) — laid
// out for memory-speed reads. A completed study compiles its confirmed
// findings into per-country bitsets over an interned domain table;
// lookups are a map index for the domain, a table index for the
// country, a bit test, and (for blocked pairs) a binary search for the
// page kind — no allocation, no locking, no pointer chasing beyond the
// row.
//
// Snapshots are immutable after Compile or Decode. Serving layers swap
// whole snapshots atomically (atomic.Pointer[Snapshot]) when a new
// study completes, so readers always see one consistent matrix: either
// the old study's answers or the new study's, never a mix.
//
// The binary codec (wire.go) persists snapshots in the journal's CRC-
// framed wire style, so a study's verdict matrix survives the process
// that computed it and an edge daemon can load it cold.
package verdict

import (
	"fmt"
	"sort"
	"sync/atomic"

	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
)

// Metric names for the serving layer. All runtime-class: lookup
// traffic depends on who asks, never on the study inputs.
const (
	// MetLookups counts verdict lookups, labeled result=blocked|clear|unknown.
	MetLookups = "verdict.lookups"
	// MetShed counts requests refused by the admission limiter.
	MetShed = "verdict.shed"
	// MetSwaps counts atomic snapshot swaps.
	MetSwaps = "verdict.swaps"
	// MetNotModified counts ETag revalidations answered 304.
	MetNotModified = "verdict.not_modified"
	// HistLookupNanos is the per-request serving latency histogram, in
	// nanoseconds.
	HistLookupNanos = "verdict.lookup_ns"
	// MetSlowLookups counts lookups past SlowLookupNanos — each one
	// also records a trace exemplar event when the edge has a tracer.
	MetSlowLookups = "verdict.lookups_slow"
)

// SlowLookupNanos is the slow-lookup exemplar threshold: a request
// served slower than this gets a wide event carrying its trace ID, so
// the latency histogram's tail has concrete, inspectable examples.
const SlowLookupNanos = 100_000

// Verdict is one (domain, country) answer.
type Verdict struct {
	// Blocked reports whether the study confirmed an explicit geoblock
	// for the pair.
	Blocked bool
	// Kind is the confirmed block-page class when Blocked, KindNone
	// otherwise.
	Kind blockpage.Kind
}

// Entry is one blocked pair in a Source: the compile-time form of a
// confirmed finding.
type Entry struct {
	Domain  string
	Country geo.CountryCode
	Kind    blockpage.Kind
}

// Source is the input to Compile: the study's scanned population (the
// full domain and country universe, so "known but not blocked" is
// distinguishable from "never studied") plus the confirmed findings.
type Source struct {
	// Version orders snapshots from the same system; serving layers use
	// it to tell which study a response came from. Studies use the
	// world's policy clock at completion.
	Version uint64
	// Seed is the study's world seed, kept for provenance.
	Seed uint64
	// Domains is the studied domain universe (the §4 safe list).
	Domains []string
	// Countries is the studied country universe (the 177 of §4.1.1).
	Countries []geo.CountryCode
	// Entries are the confirmed (domain, country, kind) findings.
	Entries []Entry
}

// countryRow is one country's slice of the matrix: a bitset over the
// interned domain table for the hot "blocked?" test, plus the sorted
// set-bit indices and their page kinds for the full verdict. A
// snapshot's rows are sub-slices of one bitset array and one array
// each of indices and kinds (rowWriter), each capped at its own length.
type countryRow struct {
	bits  []uint64 //geolint:allow wirecheck rebuilt from doms at compile and decode, never on the wire
	doms  []int32
	kinds []byte
}

func (row *countryRow) blocked(di int32) bool {
	return row.bits[uint32(di)>>6]&(1<<(uint32(di)&63)) != 0
}

// kind returns the page kind for a set bit via binary search over the
// row's sorted domain indices. Hand-rolled so the hot path stays
// allocation-free (a sort.Search closure could escape).
func (row *countryRow) kind(di int32) blockpage.Kind {
	lo, hi := 0, len(row.doms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row.doms[mid] < di {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row.doms) && row.doms[lo] == di {
		return blockpage.Kind(row.kinds[lo])
	}
	return blockpage.KindNone
}

// Snapshot is an immutable compiled verdict matrix. All methods are
// safe for unlimited concurrent readers; nothing mutates after Compile
// or Decode returns. A lookup finds the domain in a map and the
// country in letters, a table indexed by a code's two upper-case
// ASCII letters; any other code is found by binary search over the
// sorted country table, so every string answers as its place in the
// universe says.
type Snapshot struct {
	version uint64
	seed    uint64

	domains   []string
	countries []geo.CountryCode
	domainIdx map[string]int32 //geolint:allow wirecheck derived at decode by index(), never on the wire
	letters   [26 * 26]int32   //geolint:allow wirecheck derived at decode by index(), never on the wire
	rows      []countryRow

	blocked int
	etag    string //geolint:allow wirecheck taken from the input's CRC or recomputed from the encoding at decode, never on the wire
}

// Compile builds a snapshot from a completed study's outputs. Domains
// and countries are deduplicated and interned in sorted order; every
// entry must name a domain and country inside that universe, and a
// pair may appear at most once (the same pair with the same kind
// collapses; conflicting kinds error — a study never produces both).
func Compile(src Source) (*Snapshot, error) {
	s := &Snapshot{
		version: src.Version,
		seed:    src.Seed,
		domains: dedupSorted(src.Domains),
	}
	ccs := make([]string, 0, len(src.Countries))
	for _, cc := range src.Countries {
		ccs = append(ccs, string(cc))
	}
	for _, cc := range dedupSorted(ccs) {
		s.countries = append(s.countries, geo.CountryCode(cc))
	}
	s.index()

	type pair struct {
		dom  int32
		kind byte
	}
	perCountry := make([][]pair, len(s.countries))
	for _, e := range src.Entries {
		di, ok := s.domainIdx[e.Domain]
		if !ok {
			return nil, fmt.Errorf("verdict: entry domain %q is not in the snapshot's domain universe", e.Domain)
		}
		ci := s.country(e.Country)
		if ci < 0 {
			return nil, fmt.Errorf("verdict: entry country %q is not in the snapshot's country universe", e.Country)
		}
		if int(e.Kind) < 0 || int(e.Kind) > 255 {
			return nil, fmt.Errorf("verdict: entry kind %d does not fit the wire form", e.Kind)
		}
		perCountry[ci] = append(perCountry[ci], pair{di, byte(e.Kind)})
	}
	rw := newRowWriter(s, len(src.Entries))
	for ci, ps := range perCountry {
		sort.Slice(ps, func(i, j int) bool { return ps[i].dom < ps[j].dom })
		for i, p := range ps {
			if i > 0 && ps[i-1].dom == p.dom {
				if ps[i-1].kind == p.kind {
					continue
				}
				return nil, fmt.Errorf("verdict: conflicting kinds for (%s, %s)", s.domains[p.dom], s.countries[ci])
			}
			rw.add(p.dom, p.kind)
		}
		rw.end()
	}
	s.blocked = len(rw.doms)
	s.etag = computeETag(s)
	return s, nil
}

// index builds the lookup structures from the interned tables: the
// domain map, and the letter table, which holds each two-letter code's
// index in the country table plus one (0: no such code).
func (s *Snapshot) index() {
	s.domainIdx = make(map[string]int32, len(s.domains))
	for i, d := range s.domains {
		s.domainIdx[d] = int32(i)
	}
	for i, cc := range s.countries {
		if slot, ok := letterSlot(cc); ok {
			s.letters[slot] = int32(i) + 1
		}
	}
}

// letterSlot is cc's slot in the letter table, when cc is two
// upper-case ASCII letters.
func letterSlot(cc geo.CountryCode) (int, bool) {
	if len(cc) != 2 {
		return 0, false
	}
	a, b := cc[0]-'A', cc[1]-'A' // a byte below 'A' wraps past 25
	if a >= 26 || b >= 26 {
		return 0, false
	}
	return int(a)*26 + int(b), true
}

// country returns cc's index in the country table, -1 when the
// universe lacks it: one letter-table index for a code of two
// upper-case letters, a binary search over the strictly sorted table
// for any other string.
func (s *Snapshot) country(cc geo.CountryCode) int32 {
	if slot, ok := letterSlot(cc); ok {
		return s.letters[slot] - 1
	}
	return s.searchCountry(cc)
}

// searchCountry is country's binary search, hand-rolled like
// countryRow.kind.
func (s *Snapshot) searchCountry(cc geo.CountryCode) int32 {
	lo, hi := 0, len(s.countries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.countries[mid] < cc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.countries) && s.countries[lo] == cc {
		return int32(lo)
	}
	return -1
}

// rowWriter lays out a snapshot's rows, filled in table order: every
// row's bitset is a sub-slice of one array, and its indices and kinds
// sub-slices of one array each, capped at the row's own length so that
// no row can grow into the next.
type rowWriter struct {
	s     *Snapshot
	row   int // the row being filled; the rows before it are closed
	start int // where that row starts in doms and kinds
	doms  []int32
	kinds []byte
}

// newRowWriter allocates s's rows, their bitsets, and room for pairs
// blocked pairs; more pairs only cost the arrays a reallocation.
func newRowWriter(s *Snapshot, pairs int) rowWriter {
	words := (len(s.domains) + 63) / 64
	bits := make([]uint64, words*len(s.countries))
	s.rows = make([]countryRow, len(s.countries))
	for ci := range s.rows {
		s.rows[ci].bits = bits[ci*words : (ci+1)*words : (ci+1)*words]
	}
	return rowWriter{s: s, doms: make([]int32, 0, pairs), kinds: make([]byte, 0, pairs)}
}

// add blocks domain di in the row being filled. Indices must ascend
// within a row.
func (w *rowWriter) add(di int32, kind byte) {
	w.s.rows[w.row].bits[uint32(di)>>6] |= 1 << (uint32(di) & 63)
	w.doms = append(w.doms, di)
	w.kinds = append(w.kinds, kind)
}

// end closes the row being filled over the pairs added since the last
// end, and moves on to the next.
func (w *rowWriter) end() {
	n := len(w.doms)
	row := &w.s.rows[w.row]
	row.doms, row.kinds = w.doms[w.start:n:n], w.kinds[w.start:n:n]
	w.row, w.start = w.row+1, n
}

func dedupSorted(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	w := 0
	for i, v := range out {
		if i == 0 || out[w-1] != v {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// Lookup answers one (domain, country) pair. ok is false when either
// coordinate is outside the snapshot's universe — the caller's 404.
// The hot path allocates nothing.
func (s *Snapshot) Lookup(domain string, cc geo.CountryCode) (v Verdict, ok bool) {
	di, ok := s.domainIdx[domain]
	if !ok {
		return Verdict{}, false
	}
	ci := s.country(cc)
	if ci < 0 {
		return Verdict{}, false
	}
	row := &s.rows[ci]
	if !row.blocked(di) {
		return Verdict{}, true
	}
	return Verdict{Blocked: true, Kind: row.kind(di)}, true
}

// Version returns the snapshot's study version.
func (s *Snapshot) Version() uint64 { return s.version }

// Seed returns the study's world seed.
func (s *Snapshot) Seed() uint64 { return s.seed }

// ETag returns the snapshot's strong entity tag: a quoted token
// derived from the version and a checksum of the canonical encoding,
// ready for HTTP ETag / If-None-Match revalidation.
func (s *Snapshot) ETag() string { return s.etag }

// Blocked returns the confirmed blocked-pair count.
func (s *Snapshot) Blocked() int { return s.blocked }

// Domains returns the interned domain table in sorted order. The slice
// is the snapshot's own — callers must not mutate it.
func (s *Snapshot) Domains() []string { return s.domains }

// Countries returns the interned country table in sorted order. The
// slice is the snapshot's own — callers must not mutate it.
func (s *Snapshot) Countries() []geo.CountryCode { return s.countries }

// Holder publishes one current snapshot to unlimited concurrent
// readers with atomic whole-snapshot swap: a reader always sees one
// consistent matrix, never a mix of two studies. The zero value is
// ready to use and Load returns nil until the first Swap.
type Holder struct {
	p atomic.Pointer[Snapshot]
}

// Load returns the current snapshot, or nil before the first Swap.
func (h *Holder) Load() *Snapshot { return h.p.Load() }

// Swap publishes s and returns the snapshot it replaced (nil on the
// first call). In-flight readers keep the snapshot they loaded.
func (h *Holder) Swap(s *Snapshot) *Snapshot { return h.p.Swap(s) }
