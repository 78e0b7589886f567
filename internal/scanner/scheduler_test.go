package scanner

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

var (
	testWorld = worldgen.Generate(worldgen.TestConfig())
	testNet   = proxy.NewNetwork(testWorld)
)

func testConfig() Config {
	return Config{
		Samples: 3,
		Retries: 2,
		Headers: BrowserHeaders(),
		Phase:   "scanner-test",
	}
}

func smallInputs(n int) ([]string, []geo.CountryCode) {
	var domains []string
	for _, d := range testWorld.Top10K()[:n] {
		domains = append(domains, d.Name)
	}
	return domains, []geo.CountryCode{"US", "DE", "IR", "SY", "BR"}
}

// skewedTasks builds a country-skewed workload: country 0 carries 10×
// the tasks of every other country — the shape that serialized the old
// one-worker-per-country engine.
func skewedTasks(nDomains, nCountries int) []Task {
	var tasks []Task
	for d := 0; d < nDomains; d++ {
		tasks = append(tasks, Task{Domain: int32(d), Country: 0})
	}
	for c := 1; c < nCountries; c++ {
		for d := 0; d < nDomains/10; d++ {
			tasks = append(tasks, Task{Domain: int32(d), Country: int16(c)})
		}
	}
	return tasks
}

// handoverTasks scans every domain from the first two countries, the
// first country's last task and the second's first on one host whose
// transit verdict the two countries' sessions draw differently, so a
// worker that runs the two units in turn must not carry the first's
// task or verdict into the second.
func handoverTasks(t *testing.T, domains []string, countries []geo.CountryCode) []Task {
	t.Helper()
	var down [2]bool
	for x, name := range domains {
		dest := vnet.Resolve(testNet.World, name)
		for c := range down {
			s, err := testNet.NewSession(countries[c], 0)
			if err != nil {
				t.Fatal(err)
			}
			down[c] = s.PathDown(&dest)
		}
		if down[0] == down[1] {
			continue
		}
		var tasks []Task
		for d := range domains {
			if d != x {
				tasks = append(tasks, Task{Domain: int32(d), Country: 0})
			}
		}
		tasks = append(tasks, Task{Domain: int32(x), Country: 0}, Task{Domain: int32(x), Country: 1})
		for d := range domains {
			if d != x {
				tasks = append(tasks, Task{Domain: int32(d), Country: 1})
			}
		}
		return tasks
	}
	t.Fatal("no domain's transit verdict differs between the first two countries")
	return nil
}

// TestDeterminismAcrossConcurrency is the engine's core contract: the
// Result (sample order, seeds, exits, bodies — every byte) is
// identical for any worker count, and to the units executed one by one
// on fresh state. Every body is kept, so a pool worker's reused
// fetcher, session or sample buffer that carried anything of an
// earlier unit into a later one would show here; the handover tasks
// make one worker run two countries' units on one host in turn.
func TestDeterminismAcrossConcurrency(t *testing.T) {
	domains, countries := smallInputs(64)
	cfg := testConfig()
	cfg.Bodies = BodyAll
	for _, tasks := range [][]Task{skewedTasks(len(domains), len(countries)), handoverTasks(t, domains, countries)} {
		p := NewPlan(domains, countries, tasks, cfg)
		var base []Sample
		for seq := 0; seq < p.NumUnits(); seq++ {
			res, err := p.ExecuteUnit(context.Background(), testNet, seq)
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, res.Samples...)
		}
		for _, conc := range []int{1, 4, 32} {
			cfg.Concurrency = conc
			res, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg)
			if err != nil {
				t.Fatalf("concurrency %d: %v", conc, err)
			}
			if len(res.Samples) != len(base) {
				t.Fatalf("concurrency %d: %d samples, want %d", conc, len(res.Samples), len(base))
			}
			for i := range res.Samples {
				if res.Samples[i] != base[i] {
					t.Fatalf("concurrency %d: sample %d differs:\n%+v\n%+v",
						conc, i, res.Samples[i], base[i])
				}
			}
		}
	}
}

// TestUnitAllocs pins what a unit costs the in-process pool: its one
// UnitMetrics, which outlives it in journal checkpoints. Each worker
// resets its fetcher, sessions and sample buffer for every unit, and
// an emitted unit's buffer goes to the next, so the rest of a scan's
// allocations are per scan (the plan with its table of resolved
// domains, the assembly; 25 read) and per worker (its goroutine and
// the unit state it fills once). Workers take units in canonical
// order, so under AllocsPerRun's single CPU, with no preemption
// mid-scan, every unit completes at the reorder frontier and its
// buffer comes straight back, at any worker count. Two scan sizes
// under one bound hold each unit to one, whatever pages their samples
// were served.
func TestUnitAllocs(t *testing.T) {
	const perScan, perWorker = 32, 2
	reg := telemetry.New()
	for _, conc := range []int{1, 2, 8, 32} {
		for _, n := range []int{64, 128} {
			domains, countries := smallInputs(n)
			tasks := CrossProduct(len(domains), len(countries))
			cfg := testConfig()
			cfg.Bodies, cfg.ShardSize, cfg.Concurrency, cfg.Metrics = BodyNone, 8, conc, reg
			units := NewPlan(domains, countries, tasks, cfg).NumUnits()
			pages := 0
			sink := SinkFunc(func(s Sample) {
				if s.Err == ErrNone && s.Status != 200 && s.Status != 301 {
					pages++
				}
			})
			scan := func() {
				pages = 0
				// Start the scan on a fresh time slice. A lone second
				// worker runs from the run queue's next slot and
				// inherits its waker's slice, so without the yield
				// scans at Concurrency 2 share one 10 ms slice, and its
				// preemption, landing mid-scan, lets the other worker
				// run units ahead of the frontier, each on a new buffer.
				runtime.Gosched()
				if err := Run(context.Background(), testNet, domains, countries, tasks, cfg, sink); err != nil {
					t.Fatal(err)
				}
			}
			scan() // warm the world's lazy caches and the registry's series
			// A collection the scan sets off may allocate on its own.
			gc := debug.SetGCPercent(-1)
			allocs := testing.AllocsPerRun(3, scan)
			debug.SetGCPercent(gc)
			t.Logf("concurrency %d, %d units, %d pages: %.0f allocations", conc, units, pages, allocs)
			if units < 32 || pages == 0 {
				t.Fatalf("the scan has %d units and %d pages, want at least 32 and one", units, pages)
			}
			if limit := units + perScan + perWorker*conc; allocs > float64(limit) {
				t.Errorf("concurrency %d: a scan of %d units and %d pages allocated %.0f times, want at most %d: one per unit, %d per scan, %d per worker",
					conc, units, pages, allocs, limit, perScan, perWorker)
			}
		}
	}
}

// TestEach pins the pool's contract: every index runs exactly once,
// on a worker numbered below min(workers, n), whatever the worker
// count, a non-positive one included; n = 0 calls nothing.
func TestEach(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-3, 0, 1, 2, 4, 32, 200} {
			calls := make([]atomic.Int32, n)
			var bad atomic.Int32
			Each(n, workers, func(w, i int) {
				if w < 0 || w >= max(1, min(workers, n)) {
					bad.Store(int32(w) + 1)
				}
				calls[i].Add(1)
			})
			if w := bad.Load(); w != 0 {
				t.Errorf("Each(%d, %d): worker number %d out of range", n, workers, w-1)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("Each(%d, %d): index %d ran %d times, want once", n, workers, i, c)
				}
			}
		}
	}
	Each(0, 4, func(w, i int) { t.Errorf("Each(0, 4) called fn(%d, %d)", w, i) })
}

// TestCanonicalOrder pins the output ordering contract: country-major,
// then task order, then attempt — regardless of scheduling.
func TestCanonicalOrder(t *testing.T) {
	domains, countries := smallInputs(40)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 16
	res, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(tasks) * cfg.Samples; len(res.Samples) != want {
		t.Fatalf("samples = %d, want %d", len(res.Samples), want)
	}
	i := 0
	for _, task := range tasks {
		for a := 0; a < cfg.Samples; a++ {
			s := &res.Samples[i]
			if s.Domain != task.Domain || s.Country != task.Country || s.Attempt != uint8(a) {
				t.Fatalf("sample %d is (%d,%d,%d), want (%d,%d,%d)",
					i, s.Domain, s.Country, s.Attempt, task.Domain, task.Country, a)
			}
			i++
		}
	}
}

// TestLoadBoundAcrossWorkers asserts the §3.2 per-exit budget survives
// a 32-worker pool, whose workers run one country's units at once:
// within every country, no exit serves a longer consecutive stretch
// than RequestsPerExit samples.
func TestLoadBoundAcrossWorkers(t *testing.T) {
	domains, countries := smallInputs(64)
	tasks := skewedTasks(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 32
	res, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	load := res.LoadReport()
	if load.MaxStretch == 0 {
		t.Fatal("no load recorded")
	}
	if load.MaxStretch > RequestsPerExit {
		t.Fatalf("an exit served %d consecutive samples; the budget is %d",
			load.MaxStretch, RequestsPerExit)
	}
	// Sharding must spread load across the inventory at least as well
	// as one session per country did.
	if len(load.PerExit) < len(countries) {
		t.Fatalf("only %d exits used for %d countries", len(load.PerExit), len(countries))
	}
}

// TestShardSizeChangesExits documents the flip side of the determinism
// contract: ShardSize (unlike Concurrency) feeds the session slots, so
// changing it re-maps samples onto exits.
func TestShardSizeChangesExits(t *testing.T) {
	domains, countries := smallInputs(64)
	tasks := CrossProduct(len(domains), len(countries))
	run := func(shardSize int) *Result {
		cfg := testConfig()
		cfg.ShardSize = shardSize
		res, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(16), run(64)
	diff := 0
	for i := range a.Samples {
		if a.Samples[i].ExitIP != b.Samples[i].ExitIP {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("shard size must influence exit assignment")
	}
}

func TestCancellation(t *testing.T) {
	domains, countries := smallInputs(64)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 4

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	sink := SinkFunc(func(Sample) {
		n++
		if n == 10 {
			cancel()
		}
	})
	err := Run(ctx, testNet, domains, countries, tasks, cfg, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Delivery stops at the first shard boundary after the cancel: the
	// sink sees exactly the first shard, whatever else had finished.
	if want := DefaultShardSize * cfg.Samples; n != want {
		t.Fatalf("cancelled scan delivered %d samples, want the first shard's %d", n, want)
	}

	// An already-cancelled context scans nothing.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	var c Collect
	if err := Run(done, testNet, domains, countries, tasks, cfg, &c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(c.Samples) != 0 {
		t.Fatalf("cancelled scan emitted %d samples", len(c.Samples))
	}
}

func TestNoExitsShard(t *testing.T) {
	domains, _ := smallInputs(4)
	countries := []geo.CountryCode{"KP"}
	cfg := testConfig()
	res, err := Scan(context.Background(), testNet, domains, countries, CrossProduct(len(domains), 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(domains) * cfg.Samples; len(res.Samples) != want {
		t.Fatalf("samples = %d, want %d", len(res.Samples), want)
	}
	for _, s := range res.Samples {
		if s.Err != ErrNoExits {
			t.Fatalf("err = %v, want no-exits", s.Err)
		}
	}
}

func TestVPSDeterminismAcrossConcurrency(t *testing.T) {
	fleet := proxy.VPSFleet(testWorld, []geo.CountryCode{"IR", "US", "RU", "BR"})
	domains, _ := smallInputs(30)
	var base *Result
	for _, conc := range []int{1, 8} {
		cfg := Config{Samples: 2, Headers: ZGrabHeaders(), Phase: "vps-det", Concurrency: conc, ShardSize: 4}
		res, err := ScanVPS(context.Background(), fleet, domains, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		for i := range res.Samples {
			if res.Samples[i] != base.Samples[i] {
				t.Fatalf("VPS sample %d differs at concurrency %d", i, conc)
			}
		}
	}
}

func TestClassifyError(t *testing.T) {
	cases := []struct {
		err  error
		want ErrCode
	}{
		{&vnet.OpError{Op: "dns", Msg: "no such host"}, ErrDNS},
		{&vnet.OpError{Op: "proxy", Msg: "exit failed"}, ErrProxy},
		{&vnet.OpError{Op: "read", Msg: "reset"}, ErrReset},
		{errRedirectLimit, ErrRedirects},
		// http.Client.Do wraps CheckRedirect errors in *url.Error;
		// classification must unwrap rather than string-match.
		{wrapURLError(errRedirectLimit), ErrRedirects},
		{errors.New("mystery"), ErrProxy},
	}
	for _, tc := range cases {
		if got := classifyError(tc.err); got != tc.want {
			t.Errorf("classifyError(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func wrapURLError(err error) error {
	return &wrappedErr{err}
}

type wrappedErr struct{ inner error }

func (w *wrappedErr) Error() string { return "Get \"http://x/\": " + w.inner.Error() }
func (w *wrappedErr) Unwrap() error { return w.inner }

// sampleSeed is the seed the scan loops derive for one sample.
func sampleSeed(domain, country, phase string, attempt int) uint64 {
	return saltedSeed(stats.Hash(domain), seedSalt(country, phase), attempt)
}

func TestSampleSeedDistinct(t *testing.T) {
	a := sampleSeed("a.com", "IR", "initial", 0)
	b := sampleSeed("a.com", "IR", "initial", 1)
	c := sampleSeed("a.com", "SY", "initial", 0)
	d := sampleSeed("b.com", "IR", "initial", 0)
	e := sampleSeed("a.com", "IR", "resample", 0)
	seen := map[uint64]bool{}
	for _, s := range []uint64{a, b, c, d, e} {
		if seen[s] {
			t.Fatal("seed collision across sampling dimensions")
		}
		seen[s] = true
	}
}
