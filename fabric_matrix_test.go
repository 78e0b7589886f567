package geoblock

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"geoblock/internal/faults"
	"geoblock/internal/telemetry"
)

// matrixWorld is the calibration every cell of the fabric matrix runs:
// identical to resumeRun's New(Options{Scale: 0.02, Seed: 11}).
func matrixWorld() WorldConfig {
	cfg := DefaultWorldConfig()
	cfg.Seed = 11
	cfg.Scale = 0.02
	return cfg
}

// fabricYield is the test workers' Sleep hook: a scheduler yield
// instead of a wall-clock wait (this package is under the determinism
// lint, and the tests should not slow down either).
func fabricYield(time.Duration) { runtime.Gosched() }

// fabricRun executes the Top-10K study with every residential scan
// phase distributed across nWorkers worker loops (plus, when kill is
// set, one victim worker that dies mid-shard before reporting its
// first unit — exercising lease expiry and re-issue inside a real
// study). Returns the same (result, tables, snapshot) triple as
// resumeRun for byte comparison.
func fabricRun(t *testing.T, store *RunStore, reg *telemetry.Registry, tr *Tracer, nWorkers int, kill bool) (*Top10KResult, string, string) {
	t.Helper()
	wcfg := matrixWorld()
	coord := NewFabric(FabricOptions{
		Study:    FabricStudySpec{World: wcfg},
		LeaseTTL: -1, // instantly re-issuable: worker death needs no wall-clock wait
		Metrics:  reg,
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	victimDone := make(chan struct{})
	victimErr := make(chan error, 1)
	if kill {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(victimDone)
			w, err := NewFabricWorker(ctx, FabricWorkerOptions{
				Coordinator: srv.URL, Name: "victim", Sleep: fabricYield,
				Kill: faults.New(7).WorkerDeath(1),
			})
			if err != nil {
				victimErr <- err
				return
			}
			victimErr <- w.Run(ctx)
		}()
	} else {
		close(victimDone)
	}
	workerErrs := make([]error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Survivors hold back until the victim has died holding its
			// lease, so the re-issue path is exercised deterministically.
			<-victimDone
			w, err := NewFabricWorker(ctx, FabricWorkerOptions{
				Coordinator: srv.URL, Name: "w" + string(rune('a'+i)), Sleep: fabricYield,
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}

	s := New(Options{World: &wcfg, Metrics: reg, Store: store, Fabric: coord, Trace: tr})
	r := s.RunTop10K(Top10KConfig{})
	if err := s.Err(); err != nil {
		t.Fatalf("fabric study aborted: %v", err)
	}
	coord.FinishStudy()
	wg.Wait()
	if kill {
		if err := <-victimErr; !errors.Is(err, ErrFabricWorkerKilled) {
			t.Fatalf("victim worker died with %v, want ErrFabricWorkerKilled", err)
		}
	}
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	return r, paperTables(s, r), reg.Snapshot().Deterministic().Text()
}

// journalFiles reads every file of a run journal directory into a map
// for byte comparison (MANIFEST plus every segment file).
func journalFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestFabricMatrix is the PR's acceptance gate: a study distributed
// over a coordinator and {1, 2, 4} workers — including runs where a
// worker is killed mid-shard and its lease re-issued — produces the
// identical journal bytes, paper tables, findings, and deterministic
// telemetry snapshot as the single-process engine, which itself is
// invariant across scan concurrency 1/4/32.
func TestFabricMatrix(t *testing.T) {
	refResult, refTables, refSnap := resumeRun(t, nil, telemetry.New())

	// The in-process engine is concurrency-invariant; the fabric's
	// workers then only have to match one canonical output.
	for _, conc := range []int{1, 32} {
		wcfg := matrixWorld()
		reg := telemetry.New()
		s := New(Options{World: &wcfg, Metrics: reg})
		r := s.RunTop10K(Top10KConfig{Concurrency: conc})
		if paperTables(s, r) != refTables {
			t.Fatalf("in-process study at concurrency %d diverges from default", conc)
		}
		if snap := reg.Snapshot().Deterministic().Text(); snap != refSnap {
			t.Fatalf("in-process snapshot at concurrency %d diverges from default", conc)
		}
	}

	// The journaled reference: what the fabric's coordinator journal
	// must reproduce byte-for-byte.
	refDir := t.TempDir()
	refStore, err := OpenRunStore(refDir, RunStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, tables, snap := resumeRun(t, refStore, telemetry.New()); tables != refTables || snap != refSnap {
		t.Fatal("journaled in-process run diverges from reference")
	}
	refStore.Close()
	refJournal := journalFiles(t, refDir)

	for _, tc := range []struct {
		workers int
		kill    bool
	}{{1, false}, {2, true}, {4, true}} {
		dir := t.TempDir()
		store, err := OpenRunStore(dir, RunStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		result, tables, snap := fabricRun(t, store, telemetry.New(), nil, tc.workers, tc.kill)
		store.Close()
		if len(result.Findings) != len(refResult.Findings) {
			t.Fatalf("workers=%d kill=%v: %d findings, reference %d", tc.workers, tc.kill, len(result.Findings), len(refResult.Findings))
		}
		for i := range result.Findings {
			if result.Findings[i] != refResult.Findings[i] {
				t.Fatalf("workers=%d kill=%v: finding %d differs:\n%+v\n%+v", tc.workers, tc.kill, i, result.Findings[i], refResult.Findings[i])
			}
		}
		if tables != refTables {
			t.Fatalf("workers=%d kill=%v: paper tables diverge:\n--- fabric ---\n%s\n--- reference ---\n%s", tc.workers, tc.kill, tables, refTables)
		}
		if snap != refSnap {
			t.Fatalf("workers=%d kill=%v: deterministic snapshots diverge:\n--- fabric ---\n%s\n--- reference ---\n%s", tc.workers, tc.kill, snap, refSnap)
		}
		if journal := journalFiles(t, dir); !reflect.DeepEqual(journal, refJournal) {
			for name, b := range refJournal {
				if !bytes.Equal(journal[name], b) {
					t.Errorf("workers=%d kill=%v: journal file %s diverges (%d vs %d bytes)", tc.workers, tc.kill, name, len(journal[name]), len(b))
				}
			}
			for name := range journal {
				if _, ok := refJournal[name]; !ok {
					t.Errorf("workers=%d kill=%v: extra journal file %s", tc.workers, tc.kill, name)
				}
			}
			t.Fatalf("workers=%d kill=%v: coordinator journal is not byte-identical to the single-process journal", tc.workers, tc.kill)
		}
	}
}
