package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMergeReconstructsCounters is the resume-layer contract for the
// metric kinds the journal actually checkpoints (counters, gauges,
// histograms): splitting a workload's events across two registries and
// merging one's snapshot into the other must snapshot byte-identically
// to recording everything live in one registry.
func TestMergeReconstructsCounters(t *testing.T) {
	record := func(r *Registry, okResults, timeouts int64, backoffs []float64) {
		r.Counter(Label("scanner.fetch.results", "code", "ok")).Add(okResults)
		r.Counter(Label("scanner.fetch.results", "code", "timeout")).Add(timeouts)
		r.RuntimeCounter("scanner.sched.steals").Add(okResults % 3)
		r.Gauge("scanner.coverage.requested").Set(48)
		h := r.Histogram("scanner.session.backoff_ms", 0, 8000, 16)
		for _, v := range backoffs {
			h.Observe(v)
		}
	}

	live := New()
	record(live, 40, 2, []float64{250, 612, 9000})

	a := New()
	record(a, 25, 1, []float64{250, 9000})
	b := New()
	record(b, 15, 1, []float64{612})
	a.Merge(b.Snapshot())

	if got, want := a.Snapshot().Text(), live.Snapshot().Text(); got != want {
		t.Fatalf("merged registry differs from live recording:\n--- merged ---\n%s\n--- live ---\n%s", got, want)
	}
}

// TestMergeGeometryMismatch: a snapshot histogram whose bin layout
// disagrees with the registered one folds into out-of-range instead of
// silently dropping observations.
func TestMergeGeometryMismatch(t *testing.T) {
	r := New()
	r.Histogram("h", 0, 100, 10).Observe(50)

	other := New()
	oh := other.Histogram("h", 0, 1000, 5)
	oh.Observe(10)
	oh.Observe(999)
	r.Merge(other.Snapshot())

	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("%d histograms after mismatch merge, want 1", len(snap.Histograms))
	}
	h := snap.Histograms[0]
	if h.Total != 3 {
		t.Fatalf("total = %d, want 3 (no observation may vanish)", h.Total)
	}
	if h.OutOfRange != 2 {
		t.Fatalf("out-of-range = %d, want the 2 foreign-geometry observations", h.OutOfRange)
	}
}

// TestMergeNilAndEmpty: merging nil or an empty snapshot is a no-op,
// including on a nil registry.
func TestMergeNilAndEmpty(t *testing.T) {
	var nilReg *Registry
	nilReg.Merge(populate().Snapshot()) // must not panic

	r := New()
	r.Counter("c").Add(1)
	before := r.Snapshot().Text()
	r.Merge(nil)
	r.Merge(&Snapshot{})
	if r.Snapshot().Text() != before {
		t.Fatal("empty merge changed the registry")
	}
}

// TestValidateRejectsUnholdableGeometry: Validate passes every snapshot
// a registry exports and flags each histogram geometry Merge could not
// register (no bins, an empty or inverted range), naming the histogram.
func TestValidateRejectsUnholdableGeometry(t *testing.T) {
	if err := populate().Snapshot().Validate(); err != nil {
		t.Fatalf("a registry's own snapshot fails Validate: %v", err)
	}
	if err := (&Snapshot{}).Validate(); err != nil {
		t.Fatalf("the empty snapshot fails Validate: %v", err)
	}
	for _, h := range []HistogramStats{
		{Name: "flat", Min: 5, Max: 5, Counts: []int{1}},
		{Name: "inverted", Min: 10, Max: 0, Counts: []int{1, 2}},
		{Name: "binless", Min: 0, Max: 10},
	} {
		snap := populate().Snapshot()
		snap.Histograms = append(snap.Histograms, h)
		err := snap.Validate()
		if err == nil || !strings.Contains(err.Error(), h.Name) {
			t.Fatalf("histogram %+v: Validate = %v, want an error naming it", h, err)
		}
	}
}

// TestMergeIsCommutative: the journal replays checkpoints in order, but
// the algebra must not care — fold A into B and B into A, same bytes.
func TestMergeIsCommutative(t *testing.T) {
	mk := func(n int64) *Registry {
		r := New()
		r.Counter("c").Add(n)
		r.Histogram("h", 0, 10, 5).Observe(float64(n % 10))
		return r
	}
	ab, ba := mk(3), mk(7)
	ab.Merge(mk(7).Snapshot())
	ba.Merge(mk(3).Snapshot())
	if ab.Snapshot().Text() != ba.Snapshot().Text() {
		t.Fatalf("merge is order-sensitive:\n--- a+b ---\n%s\n--- b+a ---\n%s",
			ab.Snapshot().Text(), ba.Snapshot().Text())
	}
}

// TestWriteFileAtomic: WriteFile leaves no temp droppings on success,
// replaces an existing file wholesale, and fails cleanly when the
// target directory does not exist.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.txt")
	if err := os.WriteFile(path, []byte("stale content"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := populate().Snapshot()
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != snap.Text() {
		t.Fatal("overwrite left mixed content")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in dir, want just the snapshot", len(entries))
	}

	if err := snap.WriteFile(filepath.Join(dir, "missing", "metrics.txt")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
