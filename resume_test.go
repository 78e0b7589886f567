package geoblock

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"geoblock/internal/faults"
	"geoblock/internal/papertables"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
)

// resumeRun executes the Top-10K study once, optionally journaled and
// under the chaos profile chaos names (nil for none), and returns the
// result, the rendered paper tables, and the deterministic telemetry
// snapshot.
func resumeRun(t *testing.T, store *RunStore, reg *telemetry.Registry, chaos *FabricFaultSpec) (*Top10KResult, string, string) {
	t.Helper()
	s := chaosSystem(t, Options{Scale: 0.02, Seed: 11, Metrics: reg, Store: store}, chaos)
	r := s.RunTop10K(Top10KConfig{})
	return r, paperTables(s, r), reg.Snapshot().Deterministic().Text()
}

// chaosSystem is New with the injector chaos names (nil for none)
// installed in its mesh, as geoscan -faults installs it.
func chaosSystem(t *testing.T, opts Options, chaos *FabricFaultSpec) *System {
	t.Helper()
	s := New(opts)
	if chaos != nil {
		inj, err := chaos.Injector()
		if err != nil {
			t.Fatal(err)
		}
		s.Net().SetFaults(inj)
	}
	return s
}

// paperTables renders a Top-10K run's tables exactly as geoscan prints
// them.
func paperTables(s *System, r *Top10KResult) string {
	var b bytes.Buffer
	papertables.PrintTop10K(&b, s.World, r)
	return b.String()
}

// TestStudyResumeAfterCrash is the end-to-end resume contract: kill the
// journal partway through a Top-10K study, reopen the directory with a
// fresh System, and the resumed study's findings, paper tables, and
// deterministic telemetry are byte-identical to a run that never
// crashed — on a clean mesh, and under the mixed chaos profile, whose
// fault counts the resumed run replays from the journal's checkpoints.
func TestStudyResumeAfterCrash(t *testing.T) {
	for _, chaos := range []*FabricFaultSpec{nil, {Seed: 7, Profile: "mixed"}} {
		name := "clean"
		if chaos != nil {
			name = chaos.Profile
		}
		t.Run(name, func(t *testing.T) { studyResumeAfterCrash(t, chaos) })
	}
}

func studyResumeAfterCrash(t *testing.T, chaos *FabricFaultSpec) {
	refResult, refTables, refSnap := resumeRun(t, nil, telemetry.New(), chaos)
	if injected := strings.Contains(refSnap, scanner.MetInjected); injected != (chaos != nil) {
		t.Fatalf("reference snapshot holds fault counts: %v; chaos profile: %v", injected, chaos != nil)
	}

	// A journaled run with no crash must change nothing.
	dir := t.TempDir()
	st, err := OpenRunStore(dir, RunStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, tables, snap := resumeRun(t, st, telemetry.New(), chaos)
	st.Close()
	if tables != refTables {
		t.Fatalf("journaling changed the paper tables:\n--- journaled ---\n%s\n--- reference ---\n%s", tables, refTables)
	}
	if snap != refSnap {
		t.Fatalf("journaling changed the deterministic snapshot:\n--- journaled ---\n%s\n--- reference ---\n%s", snap, refSnap)
	}

	// Crash a fresh run mid-study: the store severs at a seeded record
	// count, every later phase fails fast, and the study limps to a
	// partial result.
	dir = t.TempDir()
	crashed, err := OpenRunStore(dir, RunStoreOptions{Crash: faults.New(7).StoreCrash(500)})
	if err != nil {
		t.Fatal(err)
	}
	crashSys := chaosSystem(t, Options{Scale: 0.02, Seed: 11, Metrics: telemetry.New(), Store: crashed}, chaos)
	_ = crashSys.RunTop10K(Top10KConfig{})
	if err := crashSys.study.Err(); !errors.Is(err, runstore.ErrSevered) {
		t.Fatalf("crashed study error = %v, want ErrSevered", err)
	}
	crashed.Close()

	// Resume: a fresh System over a reopened journal replays the
	// committed prefix and finishes the rest.
	resumed, err := OpenRunStore(dir, RunStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if phases := resumed.Phases(); len(phases) == 0 {
		t.Fatal("crashed journal holds no phases; the crash landed before any scan")
	}
	result, tables, snap := resumeRun(t, resumed, telemetry.New(), chaos)
	if len(result.Findings) != len(refResult.Findings) {
		t.Fatalf("resumed study found %d instances, reference %d", len(result.Findings), len(refResult.Findings))
	}
	for i := range result.Findings {
		if result.Findings[i] != refResult.Findings[i] {
			t.Fatalf("resumed finding %d differs:\n%+v\n%+v", i, result.Findings[i], refResult.Findings[i])
		}
	}
	if tables != refTables {
		t.Fatalf("resumed paper tables differ:\n--- resumed ---\n%s\n--- reference ---\n%s", tables, refTables)
	}
	if snap != refSnap {
		t.Fatalf("resumed deterministic snapshot differs:\n--- resumed ---\n%s\n--- reference ---\n%s", snap, refSnap)
	}
}
