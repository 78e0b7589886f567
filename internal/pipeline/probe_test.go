package pipeline

import (
	"strings"
	"testing"

	"geoblock/internal/geo"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/worldgen"
)

// probeInputs is one Lumscan probe: the world it runs in and what it
// measures. Every probe in TestScanFingerprintNamesInputs shares the
// journal key, phase, list sizes and samples.
type probeInputs struct {
	w         *worldgen.World
	domains   []string
	countries []geo.CountryCode
	headers   map[string]string
}

// fingerprint is the journal fingerprint Probe's scan carries.
func (p probeInputs) fingerprint() uint64 {
	s := New(p.w)
	cfg := s.scanConfig("cli")
	cfg.Samples = 1
	if p.headers != nil {
		cfg.Headers = p.headers
	}
	return s.scanFingerprint("cli", cfg, p.domains, p.countries, len(p.domains)*len(p.countries))
}

// run probes under a journal in dir and returns the study's abort.
func (p probeInputs) run(t *testing.T, dir string) error {
	t.Helper()
	store, err := runstore.Open(dir, runstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := New(p.w)
	s.Store = store
	var col scanner.Collect
	s.Probe(p.domains, p.countries, 1, p.headers, &col)
	return s.Err()
}

// TestScanFingerprintNamesInputs pins that a scan's journal fingerprint
// digests what the scan measures, not only how much: a probe that
// differs from the reference only in its domain names, its country
// codes, its header set or its world's scale gets another fingerprint,
// and resuming the reference's journal with it fails on the fingerprint
// instead of splicing two scans into one journal.
func TestScanFingerprintNamesInputs(t *testing.T) {
	cfg := worldgen.TestConfig()
	cfg.Scale = 0.02
	w := worldgen.Generate(cfg)
	cfg.Scale = 0.03
	wider := worldgen.Generate(cfg)
	var names []string
	for _, d := range w.Top10K()[:4] {
		names = append(names, d.Name)
		if _, ok := wider.Lookup(d.Name); !ok {
			t.Fatalf("%s is missing from the scale-0.03 world", d.Name)
		}
	}
	ref := probeInputs{w: w, domains: names[:3], countries: []geo.CountryCode{"US", "IR"}}
	refPrint := ref.fingerprint()
	for _, tc := range []struct {
		name string
		p    probeInputs
	}{
		{"domains", probeInputs{w: w, domains: names[1:], countries: ref.countries}},
		{"countries", probeInputs{w: w, domains: ref.domains, countries: []geo.CountryCode{"US", "DE"}}},
		{"headers", probeInputs{w: w, domains: ref.domains, countries: ref.countries, headers: scanner.ZGrabHeaders()}},
		{"scale", probeInputs{w: wider, domains: ref.domains, countries: ref.countries}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.p.fingerprint() == refPrint {
				t.Fatal("the probe shares the reference's journal fingerprint")
			}
			dir := t.TempDir()
			if err := ref.run(t, dir); err != nil {
				t.Fatalf("reference probe: %v", err)
			}
			err := tc.p.run(t, dir)
			if err == nil || !strings.Contains(err.Error(), "does not match journal's") {
				t.Fatalf("resuming the reference journal returned %v, want the fingerprint error", err)
			}
		})
	}
	if again := ref.fingerprint(); again != refPrint {
		t.Fatalf("the reference fingerprint moved between calls: %x then %x", refPrint, again)
	}
}
