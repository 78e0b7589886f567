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
	"geoblock/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the scanner's golden files")

// TestScanSnapshotGolden pins the deterministic metrics snapshot of a
// real scan: the mixed chaos profile everywhere (brownouts that clear,
// so the backoff histogram fills; retries, rotations and pre-check
// probes), IR dark (failed sweeps and breaker trips) and SY blacked out
// (shards that never open a session, so build no fetcher). Run with and
// without a ShardSink, the scan must snapshot to the same committed
// bytes, and the staged run's per-shard snapshots — a journal's
// checkpoint views — must match theirs. The matrices compare runs with
// each other, so only a golden catches a registration or tally bug
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
					fmt.Fprintf(&b, "## shard %d %s\n%s\n", d.Seq, d.Country, d.Metrics.Text())
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
