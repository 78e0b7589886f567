package scanner

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"geoblock/internal/faults"
	"geoblock/internal/trace"
)

// tracedScan runs one collected scan with a fresh tracer attached and
// returns the deterministic trace view's byte form and the number of
// runtime events (steals) the raw stream interleaved with it.
func tracedScan(t *testing.T, conc int, profile string, faultSeed uint64) ([]byte, int) {
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
	snap := tr.Snapshot()
	det := snap.Deterministic()
	b, err := det.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b, len(snap.Events) - len(det.Events)
}

// TestTraceDeterminismAcrossConcurrency is the tracing acceptance gate
// at the engine layer: the deterministic trace view — every event, ID,
// attribute, and the stream order itself — is byte-identical at
// Concurrency 1, 4, and 32, where runtime steal events interleave with
// the stream, clean and under the everything-at-once chaos profile.
func TestTraceDeterminismAcrossConcurrency(t *testing.T) {
	for _, profile := range []string{"", "mixed"} {
		name := profile
		if name == "" {
			name = "clean"
		}
		t.Run(name, func(t *testing.T) {
			base, _ := tracedScan(t, 1, profile, 42)
			for _, want := range []string{`"name": "session.open"`, `"name": "unit"`, `"name": "sink.emit"`, `"name": "scan"`} {
				if !bytes.Contains(base, []byte(want)) {
					t.Fatalf("trace carries no %s event", want)
				}
			}
			for _, conc := range []int{4, 32} {
				got, steals := tracedScan(t, conc, profile, 42)
				t.Logf("concurrency %d: %d runtime events interleaved", conc, steals)
				if !bytes.Equal(got, base) {
					t.Fatalf("concurrency %d: deterministic trace diverges from concurrency 1 (%d vs %d bytes)",
						conc, len(got), len(base))
				}
			}
		})
	}
}

// TestTraceRuntimeEventsStripped: the raw stream contains runtime-class
// steal events at high concurrency, and the deterministic view does
// not — the same split the telemetry layer enforces.
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
	det := tr.Snapshot().Deterministic()
	for _, ev := range det.Events {
		if ev.Runtime {
			t.Fatalf("runtime event %q survived Deterministic()", ev.Name)
		}
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
// scan time, spread over a shard's samples. Both sides are measured,
// not assumed.
func TestTracingDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison under -short")
	}
	domains, countries := smallInputs(16)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 1

	scanRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	samplesPerRun := len(tasks) * cfg.Samples
	nsPerSample := float64(scanRes.NsPerOp()) / float64(samplesPerRun)

	// The disabled path, per shard: resolve the (zero) scan context,
	// open a nil buffer, read its (absent) wall clock, take the
	// session-open event's nil branch, and close the nil buffer.
	// sink<n> keeps the compiler from discarding the calls.
	perShard := cfg.ShardSize
	if perShard == 0 {
		perShard = DefaultShardSize
	}
	var sink *trace.Buffer
	var sinkB bool
	var sinkW int64
	offRes := testing.Benchmark(func(b *testing.B) {
		off := testConfig() // Trace nil: tracing disabled
		for i := 0; i < b.N; i++ {
			scanCtx := ScanTraceCtx(off)
			tb := unitBuffer(scanCtx, i, off)
			sinkW += tb.Wall()
			if tb != nil {
				sinkB = !sinkB
			}
			closeUnit(tb, &shard{seq: i, country: "US"}, off, 0, 0, OutageNone)
			sink = tb
		}
	})
	_ = sink
	_ = sinkB
	_ = sinkW
	nsOverheadPerSample := float64(offRes.NsPerOp()) / float64(perShard*cfg.Samples)

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
