package telemetry

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the snapshot golden files")

// populate records a fixed set of events the same way the engine
// would during a small scan. Everything here is deterministic, so the
// snapshot must be byte-identical on every run.
func populate() *Registry {
	r := New()

	r.Counter("scanner.sched.shards_done").Add(6)
	r.Counter(Label("scanner.fetch.results", "code", "ok")).Add(40)
	r.Counter(Label("scanner.fetch.results", "code", "timeout")).Add(2)
	r.Counter(Label("faults.injected", "kind", "dark", "country", "IR")).Add(3)
	r.RuntimeCounter("scanner.sched.steals").Add(5)
	r.Gauge("scanner.coverage.requested").Set(48)
	r.RuntimeGauge("scanner.sched.workers").Set(4)

	h := r.Histogram("scanner.session.backoff_ms", 0, 8000, 16)
	h.Observe(250)
	h.Observe(612)
	h.Observe(9000) // out of range
	r.RuntimeHistogram("scanner.fetch.latency_ms", 0, 1000, 20).Observe(3.5)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s differs from golden (re-run with -update if intentional)\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestSnapshotGoldenText(t *testing.T) {
	checkGolden(t, "snapshot.golden", []byte(populate().Snapshot().Text()))
}

func TestSnapshotGoldenJSON(t *testing.T) {
	b, err := populate().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.golden.json", b)
}

func TestSnapshotByteIdenticalAcrossRuns(t *testing.T) {
	a := populate().Snapshot()
	b := populate().Snapshot()
	if a.Text() != b.Text() {
		t.Fatal("two identical recordings produced different text snapshots")
	}
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if string(aj) != string(bj) {
		t.Fatal("two identical recordings produced different JSON snapshots")
	}
}

func TestDeterministicStripsRuntime(t *testing.T) {
	det := populate().Snapshot().Deterministic()
	for _, m := range det.Counters {
		if m.Runtime {
			t.Fatalf("runtime counter %s survived Deterministic", m.Name)
		}
	}
	for _, m := range det.Gauges {
		if m.Runtime {
			t.Fatalf("runtime gauge %s survived Deterministic", m.Name)
		}
	}
	for _, h := range det.Histograms {
		if h.Runtime {
			t.Fatalf("runtime histogram %s survived Deterministic", h.Name)
		}
	}
	if len(det.Counters) == 0 || len(det.Histograms) == 0 {
		t.Fatal("deterministic view lost deterministic-class metrics")
	}
}

func TestJSONRoundTrips(t *testing.T) {
	b, err := populate().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(s.Counters) == 0 || len(s.Histograms) == 0 {
		t.Fatal("round-tripped snapshot lost content")
	}
}

func TestWriteFileFormats(t *testing.T) {
	dir := t.TempDir()
	snap := populate().Snapshot()

	txt := filepath.Join(dir, "snap.txt")
	if err := snap.WriteFile(txt); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(txt)
	if string(b) != snap.Text() {
		t.Fatal("text WriteFile content mismatch")
	}

	js := filepath.Join(dir, "snap.json")
	if err := snap.WriteFile(js); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(js)
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf(".json WriteFile must produce JSON: %v", err)
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
