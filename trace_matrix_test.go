package geoblock

import (
	"bytes"
	"testing"

	"geoblock/internal/telemetry"
)

// tracedStudy runs the Top-10K study in-process at the given scan
// concurrency with a tracer attached, and returns the deterministic
// trace view's byte form.
func tracedStudy(t *testing.T, conc int) []byte {
	t.Helper()
	wcfg := matrixWorld()
	tr := NewTracer(wcfg.Seed)
	s := New(Options{World: &wcfg, Trace: tr})
	s.RunTop10K(Top10KConfig{Concurrency: conc})
	if err := s.Err(); err != nil {
		t.Fatalf("concurrency %d: study aborted: %v", conc, err)
	}
	b, err := tr.Snapshot().Deterministic().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTraceMatrix is the tracing acceptance gate at study scope: the
// deterministic trace of a full Top-10K study — every phase's unit,
// fetch, session, emission, and pipeline scan and stage event, in
// stream order — is byte-identical at scan concurrency 1, 4, and 32,
// and identical again when the study's residential phases are
// distributed over {1, 2, 4} fabric workers, including runs where a
// worker is chaos-killed mid-shard and its lease re-issued. One
// timeline, no matter how many goroutines or processes produced it.
func TestTraceMatrix(t *testing.T) {
	ref := tracedStudy(t, 1)
	for _, want := range []string{
		`"name": "pipeline/stage"`, `"name": "pipeline/scan"`, `"name": "scan"`, `"name": "unit"`,
		`"name": "fetch"`, `"name": "session.open"`, `"name": "sink.emit"`,
	} {
		if !bytes.Contains(ref, []byte(want)) {
			t.Fatalf("reference trace is missing %s", want)
		}
	}

	for _, conc := range []int{4, 32} {
		if got := tracedStudy(t, conc); !bytes.Equal(got, ref) {
			t.Fatalf("in-process trace at concurrency %d diverges from concurrency 1 (%d vs %d bytes)",
				conc, len(got), len(ref))
		}
	}

	for _, tc := range []struct {
		workers int
		kill    bool
	}{{1, false}, {2, true}, {4, true}} {
		wcfg := matrixWorld()
		tr := NewTracer(wcfg.Seed)
		dir := t.TempDir()
		store, err := OpenRunStore(dir, RunStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fabricRun(t, store, telemetry.New(), tr, tc.workers, tc.kill)
		store.Close()
		got, err := tr.Snapshot().Deterministic().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d kill=%v: fabric trace diverges from the in-process reference (%d vs %d bytes)",
				tc.workers, tc.kill, len(got), len(ref))
		}
	}
}
