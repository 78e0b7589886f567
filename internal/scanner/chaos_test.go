package scanner

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoblock/internal/faults"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

// chaosNet builds a fresh mesh with the given fault hook installed, so
// chaos tests never leak injected failures into the shared testNet.
func chaosNet(h proxy.FaultHook) *proxy.Network {
	net := proxy.NewNetwork(testWorld)
	net.SetFaults(h)
	return net
}

// countingHook wraps a fault hook with call counters — the probe-count
// observability the chaos matrix uses to assert retries stay bounded.
// Counters are atomic (shards probe concurrently); verdicts delegate to
// the wrapped hook, so determinism is untouched.
type countingHook struct {
	inner    proxy.FaultHook
	dark     atomic.Int64 // ExitDark calls: connectivity probes + request-path checks
	requests atomic.Int64 // Request calls: fetch attempts that reached the mesh
	opens    atomic.Int64 // Brownout calls: session-open attempts
}

func (c *countingHook) Brownout(cc geo.CountryCode, slot uint64, attempt int) bool {
	c.opens.Add(1)
	return c.inner.Brownout(cc, slot, attempt)
}

func (c *countingHook) ExitDark(cc geo.CountryCode, exit geo.IP) bool {
	c.dark.Add(1)
	return c.inner.ExitDark(cc, exit)
}

func (c *countingHook) Churned(cc geo.CountryCode, exit geo.IP, served int) bool {
	return c.inner.Churned(cc, exit, served)
}

func (c *countingHook) Request(cc geo.CountryCode, exit geo.IP, host string, seed uint64) proxy.FaultVerdict {
	c.requests.Add(1)
	return c.inner.Request(cc, exit, host, seed)
}

// TestChaosMatrix runs the top10k phase under every standing fault
// profile and asserts the degradation contract: the scan terminates,
// the sample stream stays rectangular and canonically ordered, fetch
// attempts stay within the retry budget, and outage accounting matches
// what the profile destroyed.
func TestChaosMatrix(t *testing.T) {
	cases := []struct {
		name string
		// profile applied; darkCountry restricts it to IR only.
		profile     string
		darkCountry bool
		// wantOutages: exact number of fully lost countries (-1: don't pin).
		wantFullyLost int
		// wantResponses: at least one sample must carry an HTTP response.
		wantResponses bool
	}{
		{"dark-country", "dark", true, 1, true},
		{"flaky-exits", "flaky50", false, 0, true},
		{"mid-shard-churn", "churn", false, 0, true},
		{"brownout", "brownout", false, 0, true},
		{"blackout", "blackout", false, 5, false},
		{"slowloris", "slowloris", false, 0, true},
		{"truncation", "truncate", false, 0, true},
		{"mixed", "mixed", false, -1, true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			profile, ok := faults.Named(tc.profile)
			if !ok {
				t.Fatalf("profile %q not registered", tc.profile)
			}
			inj := faults.New(7)
			if tc.darkCountry {
				inj.Country("IR", profile)
			} else {
				inj.Default(profile)
			}
			hook := &countingHook{inner: inj}

			domains, countries := smallInputs(40)
			tasks := CrossProduct(len(domains), len(countries))
			cfg := testConfig()
			cfg.Concurrency = 8
			cfg.Phase = "top10k-initial"

			res, err := Scan(context.Background(), chaosNet(hook), domains, countries, tasks, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Rectangular output in canonical order, faults or not.
			if want := len(tasks) * cfg.Samples; len(res.Samples) != want {
				t.Fatalf("samples = %d, want %d", len(res.Samples), want)
			}
			i := 0
			for _, task := range tasks {
				for a := 0; a < cfg.Samples; a++ {
					s := &res.Samples[i]
					if s.Domain != task.Domain || s.Country != task.Country || s.Attempt != uint8(a) {
						t.Fatalf("sample %d out of canonical order", i)
					}
					i++
				}
			}

			// Bounded retries: every logical sample makes at most
			// 1+Retries mesh attempts.
			if max := int64(len(tasks) * cfg.Samples * (1 + cfg.Retries)); hook.requests.Load() > max {
				t.Fatalf("mesh saw %d fetch attempts; retry budget allows %d", hook.requests.Load(), max)
			}

			// Outage accounting.
			fullyLost := 0
			for _, o := range res.Outages {
				if o.Reason == OutageNone || o.Shards == 0 || o.Shards > o.ShardsTotal {
					t.Fatalf("malformed outage %+v", o)
				}
				if o.Full() {
					fullyLost++
				}
			}
			if tc.wantFullyLost >= 0 && fullyLost != tc.wantFullyLost {
				t.Fatalf("%d countries fully lost, want %d (outages %+v)", fullyLost, tc.wantFullyLost, res.Outages)
			}
			if got := len(res.Coverage.Lost); tc.wantFullyLost >= 0 && got != tc.wantFullyLost {
				t.Fatalf("coverage lists %d lost countries, want %d", got, tc.wantFullyLost)
			}
			if res.Coverage.Requested != len(countries) {
				t.Fatalf("coverage requested = %d, want %d", res.Coverage.Requested, len(countries))
			}
			if res.Coverage.Attained != res.Coverage.Requested-fullyLost {
				t.Fatalf("coverage attained = %d with %d fully lost of %d",
					res.Coverage.Attained, fullyLost, res.Coverage.Requested)
			}

			responses := 0
			for i := range res.Samples {
				if res.Samples[i].OK() {
					responses++
				}
			}
			if tc.wantResponses && responses == 0 {
				t.Fatal("profile should leave some samples answered, got none")
			}
			if !tc.wantResponses && responses != 0 {
				t.Fatalf("blackout still produced %d responses", responses)
			}
		})
	}
}

// TestChaosDeterminism is the acceptance criterion: a fixed fault seed
// yields byte-identical scan output at Concurrency 1, 4, and 32, even
// under the everything-at-once profile.
func TestChaosDeterminism(t *testing.T) {
	profile, _ := faults.Named("mixed")
	domains, countries := smallInputs(48)
	tasks := skewedTasks(len(domains), len(countries))

	var base *Result
	for _, conc := range []int{1, 4, 32} {
		inj := faults.New(42).Default(profile)
		cfg := testConfig()
		cfg.Concurrency = conc
		res, err := Scan(context.Background(), chaosNet(inj), domains, countries, tasks, cfg)
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
				t.Fatalf("concurrency %d: sample %d differs under chaos:\n%+v\n%+v",
					conc, i, res.Samples[i], base.Samples[i])
			}
		}
		if len(res.Outages) != len(base.Outages) {
			t.Fatalf("concurrency %d: %d outages, want %d", conc, len(res.Outages), len(base.Outages))
		}
		for i := range res.Outages {
			if res.Outages[i].Country != base.Outages[i].Country ||
				res.Outages[i].Reason != base.Outages[i].Reason ||
				res.Outages[i].Shards != base.Outages[i].Shards ||
				res.Outages[i].Tasks != base.Outages[i].Tasks {
				t.Fatalf("concurrency %d: outage %d differs", conc, i)
			}
		}
	}
}

// TestChaosTelemetryDeterminism extends the chaos matrix to the
// telemetry and trace layers: under every standing fault profile, the
// deterministic view of the scan's metrics snapshot — counters, error
// tallies, fault counters — and of its trace — every unit's country
// and fate, every outage — must be byte-identical at Concurrency 1, 4,
// and 32. Only the explicitly runtime-class series (the worker gauge)
// may vary with the schedule, and Deterministic() strips exactly those.
func TestChaosTelemetryDeterminism(t *testing.T) {
	domains, countries := smallInputs(48)
	tasks := skewedTasks(len(domains), len(countries))

	for _, name := range faults.Names() {
		t.Run(name, func(t *testing.T) {
			profile, _ := faults.Named(name)
			var base string
			var baseTrace []byte
			for _, conc := range []int{1, 4, 32} {
				reg := telemetry.New()
				tr := trace.New(trace.Root(42))
				inj := faults.New(42).Default(profile)
				cfg := testConfig()
				cfg.Concurrency = conc
				cfg.Metrics = reg
				cfg.Trace = tr
				cfg.Phase = "chaos"
				if _, err := Scan(context.Background(), chaosNet(inj), domains, countries, tasks, cfg); err != nil {
					t.Fatalf("concurrency %d: %v", conc, err)
				}
				text := reg.Snapshot().Deterministic().Text()
				traceJSON, err := tr.Snapshot().Deterministic().JSON()
				if err != nil {
					t.Fatal(err)
				}
				if base == "" {
					base, baseTrace = text, traceJSON
					continue
				}
				if text != base {
					t.Fatalf("concurrency %d: deterministic snapshot differs from concurrency 1:\n--- base ---\n%s\n--- got ---\n%s",
						conc, base, text)
				}
				if !bytes.Equal(traceJSON, baseTrace) {
					t.Fatalf("concurrency %d: deterministic trace differs from concurrency 1 (%d vs %d bytes)",
						conc, len(traceJSON), len(baseTrace))
				}
			}
			if !bytes.Contains(baseTrace, []byte(`"name": "unit"`)) {
				t.Fatalf("profile %s traced no unit events", name)
			}
			if !strings.Contains(base, "faults.injected") {
				t.Fatalf("profile %s fired no faults; snapshot:\n%s", name, base)
			}
			// Fetch counters only exist when a fetch happened; blackout
			// never gets past session open. Scheduler counters always do.
			if !strings.Contains(base, "scanner.sched.shards_done") {
				t.Fatalf("snapshot missing scheduler counters:\n%s", base)
			}
		})
	}
}

// TestDarkCountryFailFast is the regression test for the ready()
// pre-check spin: against a fully dark country the old loop burned
// VerifyProbes rotations on every attempt of every sample. The circuit
// breaker caps the whole shard at BreakerSweeps sweeps, so the probe
// count must scale with shards, not samples.
func TestDarkCountryFailFast(t *testing.T) {
	profile, _ := faults.Named("dark")
	inj := faults.New(3).Country("IR", profile)
	hook := &countingHook{inner: inj}

	domains, _ := smallInputs(64)
	countries := []geo.CountryCode{"IR"}
	tasks := CrossProduct(len(domains), 1)
	cfg := testConfig()
	res, err := Scan(context.Background(), chaosNet(hook), domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}

	shardCount := (len(tasks) + DefaultShardSize - 1) / DefaultShardSize
	// Per shard: at most BreakerSweeps sweeps of VerifyProbes probes,
	// plus one ExitDark check per pre-trip fetch attempt (< one sweep's
	// worth). The old spin was VerifyProbes per attempt — hundreds of
	// times this bound.
	maxProbes := int64(shardCount * (DefaultBreakerSweeps + 1) * DefaultVerifyProbes)
	if hook.dark.Load() > maxProbes {
		t.Fatalf("dark country cost %d probes; fail-fast bound is %d", hook.dark.Load(), maxProbes)
	}

	// The country degrades into a typed outage, not a hang or junk.
	if len(res.Outages) != 1 || res.Outages[0].Country != "IR" || !res.Outages[0].Full() {
		t.Fatalf("outages = %+v, want one full IR outage", res.Outages)
	}
	if res.Outages[0].Reason != OutageDark {
		t.Fatalf("reason = %v, want dark", res.Outages[0].Reason)
	}
	for i := range res.Samples {
		if res.Samples[i].Err != ErrNoExits && res.Samples[i].Err != ErrProxy {
			t.Fatalf("sample %d = %v, want no-exits or proxy", i, res.Samples[i].Err)
		}
	}
	if res.Coverage.Attained != 0 || res.Coverage.Requested != 1 {
		t.Fatalf("coverage = %+v, want 0/1", res.Coverage)
	}
}

// TestBreakerSparesFlakyCountries guards the paper's anchors: a country
// whose exits are organically flaky (here, half the inventory dark plus
// per-request failures) must NOT be written off — the breaker only
// trips when nothing has ever succeeded.
func TestBreakerSparesFlakyCountries(t *testing.T) {
	profile, _ := faults.Named("flaky50")
	inj := faults.New(11).Default(profile)

	domains, countries := smallInputs(40)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	res, err := Scan(context.Background(), chaosNet(inj), domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outages {
		if o.Reason == OutageDark && o.Full() {
			t.Fatalf("breaker wrote off flaky-but-alive country %s", o.Country)
		}
	}
	perCountry := make(map[int16]int)
	for i := range res.Samples {
		if res.Samples[i].OK() {
			perCountry[res.Samples[i].Country]++
		}
	}
	for i := range countries {
		if perCountry[int16(i)] == 0 {
			t.Fatalf("country %s produced no responses under flaky50", countries[i])
		}
	}
}

// TestBrownoutBackoff exercises the session-open path directly: a
// transient brownout clears within the open-retry budget (with
// decorrelated-jitter waits recorded in the backoff histogram), while a
// permanent one surfaces as *proxy.ErrBrownout.
func TestBrownoutBackoff(t *testing.T) {
	transient, _ := faults.Named("brownout") // clears after 1 failed open
	permanent, _ := faults.Named("blackout")

	// Find a (country, slot) pair the transient profile actually hits.
	inj := faults.New(5).Default(transient)
	cc := geo.CountryCode("US")
	slot := uint64(0)
	for ; slot < 1000; slot++ {
		if inj.Brownout(cc, slot, 0) {
			break
		}
	}
	if slot == 1000 {
		t.Fatal("no browned-out slot found in 1000 tries")
	}

	// waits counts the backoff waits a session open recorded.
	waits := func(reg *telemetry.Registry) int { return histogramTotal(reg.Snapshot(), MetBackoff) }
	reg := telemetry.New()
	net := chaosNet(inj)
	m := new(UnitMetrics)
	var se session
	if err := se.open(net, cc, slot, 0, m); err != nil {
		t.Fatalf("transient brownout did not clear: %v", err)
	}
	m.AddTo(reg, string(cc))
	if waits(reg) == 0 {
		t.Fatal("no backoff waits recorded")
	}

	// Permanent blackout: bounded attempts, then a typed error.
	reg = telemetry.New()
	net2 := chaosNet(faults.New(5).Default(permanent))
	m = new(UnitMetrics)
	err := se.open(net2, cc, slot, 0, m)
	m.AddTo(reg, string(cc))
	if err == nil {
		t.Fatal("blackout session open succeeded")
	}
	if _, ok := err.(*proxy.ErrBrownout); !ok {
		t.Fatalf("err = %T (%v), want *proxy.ErrBrownout", err, err)
	}
	if n := waits(reg); n != DefaultOpenRetries {
		t.Fatalf("%d backoff waits, want %d", n, DefaultOpenRetries)
	}
}

// TestBackoffDecorrelatedJitter pins the backoff generator itself:
// deterministic for a slot, varied across draws, always within
// [base, cap].
func TestBackoffDecorrelatedJitter(t *testing.T) {
	a, b := newBackoff(99), newBackoff(99)
	var prev time.Duration
	varied := false
	for i := 0; i < 50; i++ {
		d := a.wait()
		if d2 := b.wait(); d2 != d {
			t.Fatalf("draw %d: same slot diverged (%v vs %v)", i, d, d2)
		}
		if d < backoffBase || d > backoffCap {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d, backoffBase, backoffCap)
		}
		if i > 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("backoff produced a constant sequence; jitter is broken")
	}
	if c := newBackoff(100).wait(); c == newBackoff(99).wait() {
		t.Log("adjacent slots drew equal first waits (possible but unlikely)")
	}
}

// TestChurnForcesRotation: with every exit dying mid-stretch, the scan
// still completes with responses — rotation routes around the churn —
// and no exit serves more than its budget.
func TestChurnForcesRotation(t *testing.T) {
	profile, _ := faults.Named("churn")
	inj := faults.New(13).Default(profile)

	domains, countries := smallInputs(32)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	res, err := Scan(context.Background(), chaosNet(inj), domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	load := res.LoadReport()
	if load.MaxStretch > RequestsPerExit {
		t.Fatalf("stretch %d exceeds budget %d under churn", load.MaxStretch, RequestsPerExit)
	}
	responses := 0
	for i := range res.Samples {
		if res.Samples[i].OK() {
			responses++
		}
	}
	if responses == 0 {
		t.Fatal("churn profile starved the scan completely")
	}
}

// TestTruncationClassifiesAsReset: a truncated transfer must surface as
// a reset-classified failure (or be retried into a success), never as a
// silent short body counted as a response.
func TestTruncationClassifiesAsReset(t *testing.T) {
	inj := faults.New(17).Default(faults.Profile{Truncate: 1}) // every transfer dies
	domains, countries := smallInputs(8)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	cfg.Retries = 0 // no retries: every sample shows the raw verdict
	res, err := Scan(context.Background(), chaosNet(inj), domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Samples {
		s := &res.Samples[i]
		if s.OK() {
			t.Fatalf("sample %d reported OK with all transfers truncated", i)
		}
	}
}
