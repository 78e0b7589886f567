package scanner

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"geoblock/internal/faults"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

// tracedScan runs one collected scan with a fresh tracer attached and
// returns the deterministic trace view's byte form.
func tracedScan(t *testing.T, conc int, profile string, faultSeed uint64) []byte {
	t.Helper()
	tr := trace.New(trace.Root(7))
	cfg := testConfig()
	cfg.Concurrency = conc
	cfg.Trace = tr
	domains, countries := smallInputs(48)
	tasks := skewedTasks(len(domains), len(countries))
	net := testNet
	if profile != "" {
		p, ok := faults.Named(profile)
		if !ok {
			t.Fatalf("profile %q not registered", profile)
		}
		net = chaosNet(faults.New(faultSeed).Default(p))
	}
	if _, err := Scan(context.Background(), net, domains, countries, tasks, cfg); err != nil {
		t.Fatalf("concurrency %d: %v", conc, err)
	}
	b, err := tr.Snapshot().Deterministic().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTraceDeterminismAcrossConcurrency is the tracing acceptance gate
// at the engine layer: the deterministic trace view — every event, ID,
// attribute, and the stream order itself — is byte-identical at
// Concurrency 1, 4, and 32, clean and under the everything-at-once
// chaos profile.
func TestTraceDeterminismAcrossConcurrency(t *testing.T) {
	for _, profile := range []string{"", "mixed"} {
		name := profile
		if name == "" {
			name = "clean"
		}
		t.Run(name, func(t *testing.T) {
			base := tracedScan(t, 1, profile, 42)
			for _, want := range []string{`"name": "session.open"`, `"name": "unit"`, `"name": "sink.emit"`, `"name": "scan"`} {
				if !bytes.Contains(base, []byte(want)) {
					t.Fatalf("trace carries no %s event", want)
				}
			}
			for _, conc := range []int{4, 32} {
				got := tracedScan(t, conc, profile, 42)
				if !bytes.Equal(got, base) {
					t.Fatalf("concurrency %d: deterministic trace diverges from concurrency 1 (%d vs %d bytes)",
						conc, len(got), len(base))
				}
			}
		})
	}
}

// TestTraceRuntimeEventsStripped: an in-process scan records no
// runtime-class event at high concurrency — the pool's workers take
// units from one cursor and leave no trace of which worker ran what —
// and the deterministic view keeps no wall stamps. internal/trace's
// own tests cover stripping runtime events from a stream that has
// them.
func TestTraceRuntimeEventsStripped(t *testing.T) {
	tr := trace.New(trace.Root(7))
	cfg := testConfig()
	cfg.Concurrency = 16
	cfg.Trace = tr
	domains, countries := smallInputs(48)
	tasks := skewedTasks(len(domains), len(countries))
	if _, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	for _, ev := range snap.Events {
		if ev.Runtime {
			t.Fatalf("the scan recorded runtime event %q", ev.Name)
		}
	}
	for _, ev := range snap.Deterministic().Events {
		if ev.WallNS != 0 || ev.WallDurNS != 0 {
			t.Fatalf("event %q kept wall stamps in the deterministic view", ev.Name)
		}
	}
}

// TestFlightDumpOnSeededOutage: a fully dark country must fire the
// flight recorder exactly once per outage — the auto-dump the tentpole
// promises when an Outage is recorded.
func TestFlightDumpOnSeededOutage(t *testing.T) {
	profile, _ := faults.Named("dark")
	inj := faults.New(3).Country("IR", profile)

	var dump bytes.Buffer
	tr := trace.New(trace.Root(7)).WithFlightSink(&dump)
	domains, countries := smallInputs(32)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	cfg.Trace = tr
	res, err := Scan(context.Background(), chaosNet(inj), domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outages := 0
	for _, o := range res.Outages {
		if o.Full() {
			outages++
		}
	}
	if outages != 1 {
		t.Fatalf("want exactly one full outage, got %+v", res.Outages)
	}
	if got := tr.FlightDumps(); got != 1 {
		t.Fatalf("flight recorder dumped %d times, want 1", got)
	}
	text := dump.String()
	if !strings.Contains(text, "== trace flight recorder: outage: IR") {
		t.Fatalf("dump header missing outage reason:\n%s", text)
	}
	if !strings.Contains(text, "== end flight dump ==") {
		t.Fatalf("dump trailer missing:\n%s", text)
	}
	if !strings.Contains(text, "country=IR") {
		t.Fatalf("dump carries no IR events:\n%s", text)
	}
}

// TestTracingDisabledOverhead pins the acceptance bound: with tracing
// off, the instrumentation the engine pays — per shard, the context
// resolution, the nil buffer and its session-open and unit-close
// tests; nothing per sample — must cost under 2% of a real sample's
// scan time, spread over a shard's samples, and allocate nothing. Both
// sides are measured, not assumed, each over a fixed count of scans or
// shards (together a few hundred ms), so the check takes the same work
// on every run.
func TestTracingDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison under -short")
	}
	domains, countries := smallInputs(16)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 1
	scan := func() {
		if _, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg); err != nil {
			t.Fatal(err)
		}
	}
	scan() // warm the mesh and the heap; untimed
	var wall telemetry.Wall
	const scans = 400
	start := wall.Now()
	for i := 0; i < scans; i++ {
		scan()
	}
	nsPerSample := float64(wall.Now().Sub(start).Nanoseconds()) / float64(scans*len(tasks)*cfg.Samples)

	// The disabled path, per shard: resolve the (zero) scan context,
	// open a nil buffer, read its (absent) wall clock, take the
	// session-open event's nil branch, and close the nil buffer.
	// sink<n> keeps the compiler from discarding the calls.
	perShard := cfg.ShardSize
	if perShard == 0 {
		perShard = DefaultShardSize
	}
	off := testConfig() // Trace nil: tracing disabled
	sh := &shard{country: "US"}
	var sink *trace.Buffer
	var sinkB bool
	var sinkW int64
	disabled := func(seq int) {
		scanCtx := ScanTraceCtx(off)
		tb := unitBuffer(scanCtx, seq, off)
		sinkW += tb.Wall()
		if tb != nil {
			sinkB = !sinkB
		}
		sh.seq = seq
		closeUnit(tb, sh, off, 0, 0, OutageNone)
		sink = tb
	}
	if allocs := testing.AllocsPerRun(100, func() { disabled(1) }); allocs != 0 {
		t.Fatalf("the tracing-disabled per-shard path allocates %.1f times per shard, want 0", allocs)
	}
	const shards = 1 << 20
	start = wall.Now()
	for i := 0; i < shards; i++ {
		disabled(i)
	}
	nsOverheadPerSample := float64(wall.Now().Sub(start).Nanoseconds()) / float64(shards*perShard*cfg.Samples)
	_ = sink
	_ = sinkB
	_ = sinkW

	ratio := nsOverheadPerSample / nsPerSample
	t.Logf("scan: %.1f ns/sample; disabled-trace overhead: %.3f ns/sample (%.4f%%)",
		nsPerSample, nsOverheadPerSample, ratio*100)
	if ratio >= 0.02 {
		t.Fatalf("tracing-disabled overhead is %.2f%% of scan time; bound is 2%%", ratio*100)
	}
}

// BenchmarkScanTraceOff and BenchmarkScanTraceOn are the human-readable
// pair behind the overhead bound: run with -bench to see the absolute
// cost of recording the event stream.
func BenchmarkScanTraceOff(b *testing.B) { benchScanTrace(b, false) }
func BenchmarkScanTraceOn(b *testing.B)  { benchScanTrace(b, true) }

func benchScanTrace(b *testing.B, traced bool) {
	domains, countries := smallInputs(16)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if traced {
			cfg.Trace = trace.New(trace.Root(7))
		}
		if _, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
