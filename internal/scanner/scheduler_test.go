package scanner

import (
	"context"
	"errors"
	"testing"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

var (
	testWorld = worldgen.Generate(worldgen.TestConfig())
	testNet   = proxy.NewNetwork(testWorld)
)

func testConfig() Config {
	return Config{
		Samples:            3,
		Retries:            2,
		RequestsPerExit:    10,
		MaxRedirects:       10,
		Headers:            BrowserHeaders(),
		Phase:              "scanner-test",
		VerifyConnectivity: true,
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

// TestDeterminismAcrossConcurrency is the engine's core contract: the
// Result (sample order, seeds, exits — every byte) is identical for
// any worker count.
func TestDeterminismAcrossConcurrency(t *testing.T) {
	domains, countries := smallInputs(64)
	tasks := skewedTasks(len(domains), len(countries))

	var base *Result
	for _, conc := range []int{1, 4, 32} {
		cfg := testConfig()
		cfg.Concurrency = conc
		res, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg)
		if err != nil {
			t.Fatalf("concurrency %d: %v", conc, err)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res.Samples) != len(base.Samples) {
			t.Fatalf("concurrency %d: %d samples, want %d", conc, len(res.Samples), len(base.Samples))
		}
		for i := range res.Samples {
			if res.Samples[i] != base.Samples[i] {
				t.Fatalf("concurrency %d: sample %d differs:\n%+v\n%+v",
					conc, i, res.Samples[i], base.Samples[i])
			}
		}
	}
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

// TestLoadBoundUnderStealing asserts the §3.2 per-exit budget survives
// the work-stealing scheduler: within every country, no exit serves a
// longer consecutive stretch than RequestsPerExit samples.
func TestLoadBoundUnderStealing(t *testing.T) {
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
	if load.MaxStretch > cfg.RequestsPerExit {
		t.Fatalf("an exit served %d consecutive samples; the budget is %d",
			load.MaxStretch, cfg.RequestsPerExit)
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
