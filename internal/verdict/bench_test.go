package verdict

import (
	"strings"
	"testing"

	"geoblock/internal/geo"
	"geoblock/internal/stats"
)

// BenchmarkVerdictLookup measures the hot path the edge serves from:
// the acceptance bar is ≥1M lookups/s (≤1000 ns/op) with zero
// allocations, and in practice a lookup is tens of nanoseconds.
func BenchmarkVerdictLookup(b *testing.B) {
	s, err := Compile(bigSource(10000, 100, 7))
	if err != nil {
		b.Fatal(err)
	}
	doms := s.Domains()
	ccs := s.Countries()
	b.ReportAllocs()
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		v, _ := s.Lookup(doms[i%len(doms)], ccs[i%len(ccs)])
		sink = v.Blocked
	}
	_ = sink
}

// BenchmarkVerdictLookupZipf serves a study-sized matrix (240 domains
// × 177 countries) a key stream shaped like the edge's: domains drawn
// Zipf 0.8 over rank, countries uniformly, every key a string of its
// own rather than the snapshot's.
func BenchmarkVerdictLookupZipf(b *testing.B) {
	s, err := Compile(bigSource(240, 177, 7))
	if err != nil {
		b.Fatal(err)
	}
	type key struct {
		domain string
		cc     geo.CountryCode
	}
	rng := stats.NewRNG(5)
	zipf := stats.NewZipf(rng, len(s.Domains()), 0.8)
	keys := make([]key, 1<<16)
	for i := range keys {
		keys[i] = key{
			domain: strings.Clone(s.Domains()[zipf.Rank()-1]),
			cc:     geo.CountryCode(strings.Clone(string(s.Countries()[rng.Intn(len(s.Countries()))]))),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		k := &keys[i&(len(keys)-1)]
		v, _ := s.Lookup(k.domain, k.cc)
		sink = v.Blocked
	}
	_ = sink
}

func BenchmarkVerdictLookupMiss(b *testing.B) {
	s, err := Compile(bigSource(10000, 100, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup("absent.example", geo.CountryCode("ZZ"))
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	for _, size := range []struct {
		name               string
		domains, countries int
	}{{"10000x100", 10000, 100}, {"240x177", 240, 177}} {
		b.Run(size.name, func(b *testing.B) {
			s, err := Compile(bigSource(size.domains, size.countries, 7))
			if err != nil {
				b.Fatal(err)
			}
			enc := s.Encode()
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
