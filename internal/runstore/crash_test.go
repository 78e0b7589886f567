package runstore

import (
	"context"
	"errors"
	"testing"

	"geoblock/internal/faults"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/worldgen"
)

var crashWorld = worldgen.Generate(worldgen.TestConfig())

// crashInputs is a workload small enough to run the full matrix in
// seconds but wide enough to span many shards and countries.
func crashInputs() ([]string, []geo.CountryCode, []scanner.Task) {
	var domains []string
	for _, d := range crashWorld.Top10K()[:30] {
		domains = append(domains, d.Name)
	}
	countries := []geo.CountryCode{"US", "DE", "IR", "SY", "BR"}
	return domains, countries, scanner.CrossProduct(len(domains), len(countries))
}

func crashConfig(conc int, reg *telemetry.Registry) scanner.Config {
	return scanner.Config{
		Samples:     2,
		Retries:     2,
		Headers:     scanner.BrowserHeaders(),
		Phase:       "crash-test",
		Concurrency: conc,
		Metrics:     reg,
	}
}

// runStored drives one journaled scan attempt against a fresh mesh and
// returns the collected output, the deterministic snapshot text, and
// the scan error.
func runStored(t *testing.T, dir string, conc int, crash func(int64) bool) (*scanner.Collect, string, error) {
	t.Helper()
	domains, countries, tasks := crashInputs()
	net := proxy.NewNetwork(crashWorld)
	reg := telemetry.New()
	st, err := Open(dir, Options{Metrics: reg, Crash: crash})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var col scanner.Collect
	scanErr := st.Scan(Scan{
		Key:         "crash",
		Fingerprint: 403,
		Cfg:         crashConfig(conc, reg),
		Sink:        &col,
		Run: func(cfg scanner.Config, sink scanner.Sink) error {
			return scanner.Run(context.Background(), net, domains, countries, tasks, cfg, sink)
		},
	})
	return &col, reg.Snapshot().Deterministic().Text(), scanErr
}

// runBare is the uninterrupted, store-less reference scan.
func runBare(t *testing.T, conc int) (*scanner.Collect, string) {
	t.Helper()
	domains, countries, tasks := crashInputs()
	net := proxy.NewNetwork(crashWorld)
	reg := telemetry.New()
	var col scanner.Collect
	if err := scanner.Run(context.Background(), net, domains, countries, tasks, crashConfig(conc, reg), &col); err != nil {
		t.Fatal(err)
	}
	return &col, reg.Snapshot().Deterministic().Text()
}

// assertSameScan byte-compares two scans' samples, outages, coverage,
// and deterministic telemetry.
func assertSameScan(t *testing.T, label string, got, want *scanner.Collect, gotSnap, wantSnap string) {
	t.Helper()
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s: %d samples, want %d", label, len(got.Samples), len(want.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("%s: sample %d differs:\ngot  %+v\nwant %+v", label, i, got.Samples[i], want.Samples[i])
		}
	}
	if len(got.Outages) != len(want.Outages) {
		t.Fatalf("%s: %d outages, want %d", label, len(got.Outages), len(want.Outages))
	}
	for i := range got.Outages {
		if got.Outages[i] != want.Outages[i] {
			t.Fatalf("%s: outage %d differs:\ngot  %+v\nwant %+v", label, i, got.Outages[i], want.Outages[i])
		}
	}
	if got.Coverage.Requested != want.Coverage.Requested ||
		got.Coverage.Attained != want.Coverage.Attained ||
		got.Coverage.TasksLost != want.Coverage.TasksLost ||
		len(got.Coverage.Lost) != len(want.Coverage.Lost) {
		t.Fatalf("%s: coverage differs:\ngot  %+v\nwant %+v", label, got.Coverage, want.Coverage)
	}
	if gotSnap != wantSnap {
		t.Fatalf("%s: deterministic snapshot differs:\n--- got ---\n%s\n--- want ---\n%s", label, gotSnap, wantSnap)
	}
}

// TestKillMidWriteMatrix is the acceptance criterion: sever the journal
// mid-record at a seeded point, reopen, resume — and the resumed run's
// samples, outages, coverage, and deterministic telemetry snapshot are
// byte-identical to an uninterrupted run, at Concurrency 1, 4, and 32
// across crash seeds. The crash may also land after the whole scan
// completed (large spans), in which case the severed attempt itself
// already succeeded — resume must then be a pure replay.
func TestKillMidWriteMatrix(t *testing.T) {
	refCol, refSnap := runBare(t, 1)

	for _, conc := range []int{1, 4, 32} {
		// The same schedule without a store must already match.
		bareCol, bareSnap := runBare(t, conc)
		assertSameScan(t, "bare", bareCol, refCol, bareSnap, refSnap)

		for _, seed := range []uint64{1, 2, 3} {
			for _, span := range []int64{25, 200} {
				dir := t.TempDir()
				crash := faults.New(seed).StoreCrash(span)

				col, snap, err := runStored(t, dir, conc, crash)
				if err == nil {
					// The seeded kill point landed past the journal's record
					// count: the first attempt already completed and must be
					// correct on its own.
					assertSameScan(t, "uncrashed first attempt", col, refCol, snap, refSnap)
				} else if !errors.Is(err, ErrSevered) {
					t.Fatalf("conc %d seed %d span %d: first attempt: %v", conc, seed, span, err)
				}

				// Crash → reopen → resume: the second attempt replays the
				// committed prefix and fetches only the rest.
				col2, snap2, err := runStored(t, dir, conc, nil)
				if err != nil {
					t.Fatalf("conc %d seed %d span %d: resume: %v", conc, seed, span, err)
				}
				assertSameScan(t, "resume", col2, refCol, snap2, refSnap)
			}
		}
	}
}

// TestResumeOfCompletePhase: reopening a journal whose phase finished
// replays everything from disk — zero fetching — and still reproduces
// the identical output and deterministic snapshot.
func TestResumeOfCompletePhase(t *testing.T) {
	refCol, refSnap := runBare(t, 4)
	dir := t.TempDir()

	col, snap, err := runStored(t, dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameScan(t, "journaled", col, refCol, snap, refSnap)

	col2, snap2, err := runStored(t, dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameScan(t, "replay", col2, refCol, snap2, refSnap)
}

// TestDoubleCrashResume: a resume attempt that itself crashes still
// leaves a resumable journal — checkpoints only ever accumulate.
func TestDoubleCrashResume(t *testing.T) {
	refCol, refSnap := runBare(t, 4)
	dir := t.TempDir()

	if _, _, err := runStored(t, dir, 4, faults.New(1).StoreCrash(20)); !errors.Is(err, ErrSevered) {
		t.Fatalf("first crash: %v, want ErrSevered", err)
	}
	if _, _, err := runStored(t, dir, 4, faults.New(2).StoreCrash(60)); !errors.Is(err, ErrSevered) {
		t.Fatalf("second crash: %v, want ErrSevered", err)
	}
	col, snap, err := runStored(t, dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameScan(t, "after two crashes", col, refCol, snap, refSnap)
}

// TestFingerprintMismatch: resuming with a different study fingerprint
// errors instead of splicing two scans together.
func TestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := runStored(t, dir, 1, nil); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	err = st.Scan(Scan{
		Key:         "crash",
		Fingerprint: 404, // journal holds 403
		Cfg:         crashConfig(1, nil),
		Sink:        &scanner.Collect{},
		Run: func(scanner.Config, scanner.Sink) error {
			t.Fatal("engine ran despite fingerprint mismatch")
			return nil
		},
	})
	if err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
}
