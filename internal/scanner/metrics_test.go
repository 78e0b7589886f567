package scanner

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geoblock/internal/faults"
	"geoblock/internal/proxy"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the scanner's golden files")

// TestScanSnapshotGolden pins the deterministic metrics snapshot of a
// real scan: the mixed chaos profile everywhere (brownouts that clear,
// so the backoff histogram fills; retries, rotations and pre-check
// probes), IR dark (failed sweeps and breaker trips) and SY blacked out
// (shards that never open a session, so build no fetcher). Run with
// ("staged") and without ("unstaged") a ShardSink, the scan must
// snapshot to the same committed bytes, and each ShardDone's metrics —
// what a journal checkpoints — added to a fresh registry must snapshot
// to theirs. The matrices compare runs with
// each other, so only a golden catches a registration or counting bug
// that hits both paths alike.
func TestScanSnapshotGolden(t *testing.T) {
	mixed, _ := faults.Named("mixed")
	dark, _ := faults.Named("dark")
	blackout, _ := faults.Named("blackout")
	domains, countries := smallInputs(40)
	tasks := CrossProduct(len(domains), len(countries))

	for _, tc := range []struct {
		name string
		sink Sink
	}{
		{"unstaged", &Collect{}},
		{"staged", &shardCollect{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			cfg := testConfig()
			cfg.Concurrency = 4
			cfg.Metrics = reg
			cfg.Phase = "golden"
			inj := faults.New(7).Default(mixed).Country("IR", dark).Country("SY", blackout)
			if err := Run(context.Background(), chaosNet(inj), domains, countries, tasks, cfg, tc.sink); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot().Deterministic()
			for _, name := range []string{MetRetries, MetRotations, MetProbes, MetBrownouts, MetFailedSweeps, MetBreakerTrips} {
				if counterValue(snap, name) == 0 {
					t.Errorf("the profile never moved %s", name)
				}
			}
			if histogramTotal(snap, MetBackoff) == 0 {
				t.Errorf("the profile recorded no %s waits", MetBackoff)
			}
			checkGolden(t, "snapshot.golden", snap.Text())
			if sc, ok := tc.sink.(*shardCollect); ok {
				var b strings.Builder
				for _, d := range sc.Dones {
					shard := telemetry.New()
					d.Metrics.AddTo(shard, d.Country)
					fmt.Fprintf(&b, "## shard %d %s\n%s\n", d.Seq, d.Country, shard.Snapshot().Deterministic().Text())
				}
				checkGolden(t, "shards.golden", b.String())
			}
		})
	}
}

// checkGolden compares got with testdata/name, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("snapshot differs from %s (re-run with -update if intentional)\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// counterValue reads a counter from a snapshot, zero when absent.
func counterValue(s *telemetry.Snapshot, name string) int64 {
	for _, m := range s.Counters {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// histogramTotal reads a histogram's observation count from a
// snapshot, zero when absent.
func histogramTotal(s *telemetry.Snapshot, name string) int {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Total
		}
	}
	return 0
}

// TestResultCounterNames pins the fetch result counters UnitMetrics.AddTo
// adds to telemetry.Label(MetFetchResults, "code", code.String()) for
// every code below errCodeCount: each code's count must reach the
// series of that name, and AddTo must register no other result series.
func TestResultCounterNames(t *testing.T) {
	m := UnitMetrics{Fetcher: true}
	for e := range m.Results {
		m.Results[e] = int64(e) + 1
	}
	reg := telemetry.New()
	m.AddTo(reg, "US")
	snap := reg.Snapshot()
	for c := ErrCode(0); c < ErrCode(errCodeCount); c++ {
		name := telemetry.Label(MetFetchResults, "code", c.String())
		if got := counterValue(snap, name); got != int64(c)+1 {
			t.Errorf("%s = %d after flushing %d %v results", name, got, int64(c)+1, c)
		}
	}
	series := 0
	for _, m := range snap.Counters {
		if strings.HasPrefix(m.Name, MetFetchResults+"{") {
			series++
		}
	}
	if series != errCodeCount {
		t.Errorf("AddTo registered %d result series, want %d", series, errCodeCount)
	}
}

// TestFaultCountBound pins the injected faults UnitMetrics.check lets
// a unit count: one per hop its attempts may send, plus one dark exit
// per pre-check probe, and not one more.
func TestFaultCountBound(t *testing.T) {
	m := UnitMetrics{Fetcher: true, Attempts: 3, Probes: 4}
	m.Results[ErrProxy] = 3
	m.Faults = proxy.FaultCounts{Dark: 4 + 2, Churn: 3*MaxRedirects - 2}
	if err := m.check(3); err != nil {
		t.Fatalf("faults at the bound refused: %v", err)
	}
	m.Faults.Truncate++
	if err := m.check(3); err == nil {
		t.Fatal("a fault past the bound accepted")
	}
}

// TestUnitHistogramBinsLikeStats: a UnitHistogram bins by the rule
// stats.Histogram.Add counts by — the upper edge in the last bin,
// values outside the range out of range — and sums its observations
// truncated toward zero, as the registry does.
func TestUnitHistogramBinsLikeStats(t *testing.T) {
	var h UnitHistogram
	ref := stats.NewHistogram(0, bytesMax, unitBins)
	var sum int64
	for _, v := range []float64{-1, 0, 0.5, 4095.9, 4096, 31337, 65535.9, 65536, 65537, 1e9} {
		h.observe(v, bytesMax)
		ref.Add(v)
		sum += int64(v)
	}
	for i, c := range ref.Counts {
		if h.Counts[i] != int64(c) {
			t.Errorf("bin %d holds %d, stats.Histogram %d", i, h.Counts[i], c)
		}
	}
	if h.OutOfRange != 3 || h.Sum != sum {
		t.Errorf("out of range %d, sum %d; want 3, %d", h.OutOfRange, h.Sum, sum)
	}
}
