package geoblock

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"geoblock/internal/fabric"
	"geoblock/internal/faults"
	"geoblock/internal/scanner"
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
// first unit — exercising the re-lease of its outstanding units inside
// a real study), under the chaos profile chaos names (nil for none). Returns
// the same (result, tables, snapshot) triple as resumeRun for byte
// comparison.
func fabricRun(t *testing.T, store *RunStore, reg *telemetry.Registry, tr *Tracer, nWorkers int, kill bool, chaos *FabricFaultSpec) (*Top10KResult, string, string) {
	t.Helper()
	wcfg := matrixWorld()
	coord := NewFabric(FabricOptions{
		Study:   FabricStudySpec{World: wcfg, Faults: chaos},
		Metrics: reg,
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
			// units, so the re-lease path is exercised deterministically.
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

	s := chaosSystem(t, Options{World: &wcfg, Metrics: reg, Store: store, Fabric: coord, Trace: tr}, chaos)
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
// for byte comparison: its journal file, and any other file a run
// leaves there.
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

// TestFabricMatrix is the fabric's acceptance gate: a study distributed
// over a coordinator and {1, 2, 4} workers — including runs where a
// worker is killed mid-shard and its units re-leased — produces the
// identical journal bytes, paper tables, findings, and deterministic
// telemetry snapshot as the single-process engine, which itself is
// invariant across scan concurrency 1/4/32. The chaos cell runs the
// mixed profile on every worker: the killed victim's unit runs twice,
// and its injected faults must still count once, as in process. Every
// cell's runtime lease counters account for the re-leases: each unit
// completes once, no unit completes twice unless it was re-leased, and
// a killed victim's units are.
func TestFabricMatrix(t *testing.T) {
	clean := matrixReference(t, nil)

	// The in-process engine is concurrency-invariant; the fabric's
	// workers then only have to match one canonical output.
	for _, conc := range []int{1, 32} {
		wcfg := matrixWorld()
		reg := telemetry.New()
		s := New(Options{World: &wcfg, Metrics: reg})
		r := s.RunTop10K(Top10KConfig{Concurrency: conc})
		if paperTables(s, r) != clean.tables {
			t.Fatalf("in-process study at concurrency %d diverges from default", conc)
		}
		if snap := reg.Snapshot().Deterministic().Text(); snap != clean.snap {
			t.Fatalf("in-process snapshot at concurrency %d diverges from default", conc)
		}
	}

	mixed := &FabricFaultSpec{Seed: 7, Profile: "mixed"}
	refs := map[*FabricFaultSpec]matrixRef{nil: clean, mixed: matrixReference(t, mixed)}
	if !strings.Contains(refs[mixed].snap, scanner.MetInjected) {
		t.Fatal("the mixed profile's reference snapshot holds no fault counts")
	}

	for _, tc := range []struct {
		workers int
		kill    bool
		chaos   *FabricFaultSpec
	}{{1, false, nil}, {2, true, nil}, {4, true, nil}, {2, true, mixed}} {
		want := refs[tc.chaos]
		cell := fmt.Sprintf("workers=%d kill=%v chaos=%v", tc.workers, tc.kill, tc.chaos != nil)
		dir := t.TempDir()
		store, err := OpenRunStore(dir, RunStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		result, tables, snap := fabricRun(t, store, reg, nil, tc.workers, tc.kill, tc.chaos)
		store.Close()
		completed := reg.RuntimeCounter(fabric.MetCompletes).Value()
		reissues := reg.RuntimeCounter(fabric.MetReissues).Value()
		duplicates := reg.RuntimeCounter(fabric.MetDuplicates).Value()
		if done := reg.Counter(scanner.MetShardsDone).Value(); completed != done || duplicates > reissues || tc.kill && reissues < 1 {
			t.Fatalf("%s: %d units completed for %d shards done, %d duplicate completions for %d re-leases", cell, completed, done, duplicates, reissues)
		}
		if len(result.Findings) != len(want.result.Findings) {
			t.Fatalf("%s: %d findings, reference %d", cell, len(result.Findings), len(want.result.Findings))
		}
		for i := range result.Findings {
			if result.Findings[i] != want.result.Findings[i] {
				t.Fatalf("%s: finding %d differs:\n%+v\n%+v", cell, i, result.Findings[i], want.result.Findings[i])
			}
		}
		if tables != want.tables {
			t.Fatalf("%s: paper tables diverge:\n--- fabric ---\n%s\n--- reference ---\n%s", cell, tables, want.tables)
		}
		if snap != want.snap {
			t.Fatalf("%s: deterministic snapshots diverge:\n--- fabric ---\n%s\n--- reference ---\n%s", cell, snap, want.snap)
		}
		if journal := journalFiles(t, dir); !reflect.DeepEqual(journal, want.journal) {
			for name, b := range want.journal {
				if !bytes.Equal(journal[name], b) {
					t.Errorf("%s: journal file %s diverges (%d vs %d bytes)", cell, name, len(journal[name]), len(b))
				}
			}
			for name := range journal {
				if _, ok := want.journal[name]; !ok {
					t.Errorf("%s: extra journal file %s", cell, name)
				}
			}
			t.Fatalf("%s: coordinator journal is not byte-identical to the single-process journal", cell)
		}
	}
}

// matrixRef is what every fabric cell under one fault spec must
// reproduce: the in-process study's result, paper tables,
// deterministic snapshot and journal files.
type matrixRef struct {
	result       *Top10KResult
	tables, snap string
	journal      map[string][]byte
}

// matrixReference runs the in-process study under the chaos profile
// chaos names (nil for none), bare and journaled, and checks that
// journaling changed neither its tables nor its snapshot.
func matrixReference(t *testing.T, chaos *FabricFaultSpec) matrixRef {
	t.Helper()
	var ref matrixRef
	ref.result, ref.tables, ref.snap = resumeRun(t, nil, telemetry.New(), chaos)
	dir := t.TempDir()
	store, err := OpenRunStore(dir, RunStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, tables, snap := resumeRun(t, store, telemetry.New(), chaos); tables != ref.tables || snap != ref.snap {
		t.Fatal("journaled in-process run diverges from reference")
	}
	store.Close()
	ref.journal = journalFiles(t, dir)
	return ref
}
