package geoblock

import (
	"bytes"
	"testing"

	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

// tracedStudy runs the Top-10K study in-process at the given scan
// concurrency with a tracer attached, and returns the deterministic
// trace view and its byte form.
func tracedStudy(t *testing.T, conc int) (*trace.Trace, []byte) {
	t.Helper()
	wcfg := matrixWorld()
	tr := NewTracer(wcfg.Seed)
	s := New(Options{World: &wcfg, Trace: tr})
	s.RunTop10K(Top10KConfig{Concurrency: conc})
	if err := s.Err(); err != nil {
		t.Fatalf("concurrency %d: study aborted: %v", conc, err)
	}
	det := tr.Snapshot().Deterministic()
	b, err := det.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return det, b
}

// checkUnitEvents pins what a trace records per work unit: exactly one
// "session.open", one "unit" and one "sink.emit" event, and no other
// deterministic unit-scoped event — a sample has no event of its own.
// A unit is keyed by its scan span and sequence: the "unit" and
// "sink.emit" events nest under the scan span, "session.open" under the
// unit's own span.
func checkUnitEvents(t *testing.T, det *trace.Trace) {
	t.Helper()
	type key struct {
		scan trace.ID
		seq  int
	}
	units := map[trace.ID]key{} // unit span → its key
	for _, ev := range det.Events {
		if ev.Name == "unit" {
			units[ev.Span] = key{ev.Parent, ev.Unit}
		}
	}
	counts := map[key]map[string]int{}
	for _, ev := range det.Events {
		if ev.Unit < 0 {
			continue
		}
		k := key{ev.Parent, ev.Unit}
		switch ev.Name {
		case "unit", "sink.emit":
		case "session.open":
			var ok bool
			if k, ok = units[ev.Parent]; !ok {
				t.Fatalf("session.open of unit %d nests under no unit event", ev.Unit)
			}
		default:
			t.Fatalf("deterministic trace carries %q events (unit %d); a unit records only session.open, unit and sink.emit", ev.Name, ev.Unit)
		}
		if counts[k] == nil {
			counts[k] = map[string]int{}
		}
		counts[k][ev.Name]++
	}
	if len(counts) == 0 || len(counts) != len(units) {
		t.Fatalf("%d units carry events, %d carry a unit event", len(counts), len(units))
	}
	for k, n := range counts {
		if n["session.open"] != 1 || n["unit"] != 1 || n["sink.emit"] != 1 {
			t.Fatalf("unit %d of scan %s records %v, want one session.open, unit and sink.emit", k.seq, k.scan, n)
		}
	}
}

// TestTraceMatrix is the tracing acceptance gate at study scope: the
// deterministic trace of a full Top-10K study — every phase's unit,
// session, emission, and pipeline scan and stage event, in stream
// order — is byte-identical at scan concurrency 1, 4, and 32, and
// identical again when the study's residential phases are distributed
// over {1, 2, 4} fabric workers, including runs where a worker is
// chaos-killed mid-shard and its units re-leased. One timeline, no
// matter how many goroutines or processes produced it.
func TestTraceMatrix(t *testing.T) {
	det, ref := tracedStudy(t, 1)
	for _, want := range []string{
		`"name": "pipeline/stage"`, `"name": "pipeline/scan"`, `"name": "scan"`, `"name": "unit"`,
		`"name": "session.open"`, `"name": "sink.emit"`,
	} {
		if !bytes.Contains(ref, []byte(want)) {
			t.Fatalf("reference trace is missing %s", want)
		}
	}
	if bytes.Contains(ref, []byte(`"name": "fetch"`)) {
		t.Fatal("reference trace carries per-sample fetch events")
	}
	checkUnitEvents(t, det)

	for _, conc := range []int{4, 32} {
		if _, got := tracedStudy(t, conc); !bytes.Equal(got, ref) {
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
		fabricRun(t, store, telemetry.New(), tr, tc.workers, tc.kill, nil)
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
