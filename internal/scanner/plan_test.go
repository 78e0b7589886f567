package scanner

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"geoblock/internal/stats"
	"geoblock/internal/vnet"
)

// planInputs is a multi-shard, multi-country workload small enough to
// execute unit-by-unit in a test.
func planInputs() ([]string, []Task, Config) {
	domains, countries := smallInputs(24)
	cfg := testConfig()
	cfg.ShardSize = 8
	return domains, CrossProduct(len(domains), len(countries)), cfg
}

// TestPlanTargets pins the table a plan resolves its domains into: each
// entry holds the first probe's host and path, the destination
// vnet.Resolve gives for that host, and the domain's seed hash,
// for a plain name, an upper-case one, a www. one, one with a port, one
// the world does not hold, and one that is no URL at all, whose entry
// holds the error every attempt at it fails with. A plan builds the
// table once for the world that executes it.
func TestPlanTargets(t *testing.T) {
	top := testWorld.Top10K()
	domains := []string{top[0].Name, strings.ToUpper(top[1].Name), "www." + top[2].Name,
		top[3].Name + ":80", "nope.example", "bad host.example"}
	hosts := []string{top[0].Name, strings.ToUpper(top[1].Name), "www." + top[2].Name, top[3].Name, "nope.example", ""}
	_, countries := smallInputs(1)
	p := NewPlan(domains, countries, CrossProduct(len(domains), len(countries)), testConfig())
	targets := p.resolve(testWorld)
	for i, domain := range domains {
		tg := targets[i]
		if tg.seed != stats.Hash(domain) {
			t.Errorf("%s: seed hash %x, want %x", domain, tg.seed, stats.Hash(domain))
		}
		if hosts[i] == "" {
			if tg.err == nil || classifyError(tg.err) != ErrDNS {
				t.Errorf("%s: error %v, want a DNS failure", domain, tg.err)
			}
			continue
		}
		want := vnet.Resolve(testWorld, hosts[i])
		if tg.err != nil || tg.host != hosts[i] || tg.path != "/" || tg.dest != want {
			t.Errorf("%s: host %q, path %q, %+v, error %v; want host %q, path \"/\", %+v", domain, tg.host, tg.path, tg.dest, tg.err, hosts[i], want)
		}
		if (want.Domain == nil) != (domain == "nope.example") {
			t.Errorf("%s resolves to %v", domain, want.Domain)
		}
	}
	if again := p.resolve(testWorld); &again[0] != &targets[0] {
		t.Error("the plan resolved its domains twice for one world")
	}
	if other := p.resolve(refWorld); &other[0] == &targets[0] || other[0].dest.Domain == targets[0].dest.Domain {
		t.Error("the plan kept one world's table for another")
	}
}

// TestPlanMatchesRun is the plan layer's identity contract: executing
// every unit out of order through an Assembly reproduces the exact
// samples, outages, and coverage of the one-shot engine.
func TestPlanMatchesRun(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)

	ref, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPlan(domains, countries, tasks, cfg)
	if p.NumUnits() == 0 {
		t.Fatal("plan has no units")
	}
	var col Collect
	asm, err := NewAssembly(p, &col)
	if err != nil {
		t.Fatal(err)
	}
	pending := asm.Pending()
	if len(pending) != p.NumUnits() {
		t.Fatalf("Pending lists %d units, plan has %d", len(pending), p.NumUnits())
	}
	// Complete in reverse canonical order: the assembly's reorder
	// frontier must hold everything back and still emit canonically.
	for i := len(pending) - 1; i >= 0; i-- {
		seq := pending[i]
		res, err := p.ExecuteUnit(context.Background(), testNet, seq)
		if err != nil {
			t.Fatalf("unit %d: %v", seq, err)
		}
		if asm.Done() && i > 0 {
			t.Fatal("assembly done with completions outstanding")
		}
		if err := asm.Complete(seq, res); err != nil {
			t.Fatalf("complete %d: %v", seq, err)
		}
	}
	if !asm.Done() {
		t.Fatal("assembly not done after every completion")
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(col.Samples, ref.Samples) {
		t.Fatalf("plan-executed samples diverge from Scan (%d vs %d)", len(col.Samples), len(ref.Samples))
	}
	if !reflect.DeepEqual(col.Outages, ref.Outages) {
		t.Fatalf("outages diverge:\n%+v\n%+v", col.Outages, ref.Outages)
	}
	if !reflect.DeepEqual(col.Coverage, ref.Coverage) {
		t.Fatalf("coverage diverges:\n%+v\n%+v", col.Coverage, ref.Coverage)
	}
}

// TestPlanFingerprints: two plans over the same inputs agree on every
// fingerprint; any identity-bearing change — sampling parameters, task
// contents — moves them. Concurrency deliberately does not.
func TestPlanFingerprints(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)

	a := NewPlan(domains, countries, tasks, cfg)
	b := NewPlan(domains, countries, tasks, cfg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical inputs produced different plan fingerprints")
	}
	ua, ub := a.Units(), b.Units()
	if !reflect.DeepEqual(ua, ub) {
		t.Fatal("identical inputs produced different unit sets")
	}
	for i, u := range ua {
		if u.Seq != i {
			t.Fatalf("unit %d carries seq %d", i, u.Seq)
		}
		if u.Fingerprint == 0 {
			t.Fatalf("unit %d has a zero fingerprint", i)
		}
	}

	conc := cfg
	conc.Concurrency = 17
	if NewPlan(domains, countries, tasks, conc).Fingerprint() != a.Fingerprint() {
		t.Fatal("Concurrency moved the plan fingerprint; it must be free to vary")
	}

	moved := cfg
	moved.Samples = cfg.Samples + 1
	if NewPlan(domains, countries, tasks, moved).Fingerprint() == a.Fingerprint() {
		t.Fatal("changing Samples did not move the plan fingerprint")
	}

	swapped := append([]string(nil), domains...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if NewPlan(swapped, countries, tasks, cfg).Units()[0].Fingerprint == ua[0].Fingerprint {
		t.Fatal("changing a unit's task contents did not move its fingerprint")
	}
}

// TestExecuteUnitRepeatable: a unit is a pure function of the plan — a
// re-issued lease executing it again gets byte-identical samples.
func TestExecuteUnitRepeatable(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)
	p := NewPlan(domains, countries, tasks, cfg)

	r1, err := p.ExecuteUnit(context.Background(), testNet, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.ExecuteUnit(context.Background(), testNet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Samples, r2.Samples) || r1.Lost != r2.Lost {
		t.Fatal("re-executing a unit produced different output")
	}

	if _, err := p.ExecuteUnit(context.Background(), testNet, p.NumUnits()); err == nil {
		t.Fatal("out-of-range unit executed")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExecuteUnit(cancelled, testNet, 0); err == nil {
		t.Fatal("cancelled context executed a unit")
	}
}

// TestAssemblyRejections: the completion bookkeeping that keeps a
// distributed run honest — duplicates, strays, and premature or double
// finishes all error without disturbing the stream.
func TestAssemblyRejections(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)
	p := NewPlan(domains, countries, tasks, cfg)
	var col Collect
	asm, err := NewAssembly(p, &col)
	if err != nil {
		t.Fatal(err)
	}

	if err := asm.Finish(); err == nil || !strings.Contains(err.Error(), "outstanding") {
		t.Fatalf("premature finish: err = %v", err)
	}
	res, err := p.ExecuteUnit(context.Background(), testNet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Complete(p.NumUnits(), res); err == nil {
		t.Fatal("out-of-range completion accepted")
	}
	// Results that are not unit 0's output — a short payload, a sample
	// of a foreign domain, an unknown loss reason, and metrics no
	// execution of the unit counts, among them more injected faults
	// than its hops and pre-check probes could meet — are rejected, and
	// checked before the duplicate test, so no bad payload ever passes
	// for a duplicate.
	short, foreign, unknown, unmetered := res, res, res, res
	short.Samples = res.Samples[:1]
	foreign.Samples = append([]Sample(nil), res.Samples...)
	foreign.Samples[0].Domain = 1 << 30
	unknown.Lost = OutageDark + 1
	unmetered.Metrics = nil
	metrics := func(edit func(*UnitMetrics)) UnitResult {
		r, m := res, *res.Metrics
		edit(&m)
		r.Metrics = &m
		return r
	}
	bad := []UnitResult{short, foreign, unknown, unmetered,
		metrics(func(m *UnitMetrics) { m.Results[ErrNone]++ }),
		metrics(func(m *UnitMetrics) { m.Bytes.OutOfRange++ }),
		metrics(func(m *UnitMetrics) { m.Attempts, m.Results[ErrProxy] = m.Attempts+1000, m.Results[ErrProxy]+1000 }),
		metrics(func(m *UnitMetrics) { m.Attempts = -1 }),
		metrics(func(m *UnitMetrics) { m.Fetcher = false }),
		// Bins that wrap past 2^64 to the ok results' count.
		metrics(func(m *UnitMetrics) {
			m.Bytes = UnitHistogram{OutOfRange: m.Results[ErrNone] + 2}
			m.Bytes.Counts[0], m.Bytes.Counts[1] = math.MaxInt64, math.MaxInt64
		}),
		metrics(func(m *UnitMetrics) { m.Faults.Stall = m.Attempts*MaxRedirects + m.Probes + 1 }),
		// Faults and probes that would wrap past 2^63 into the bound.
		metrics(func(m *UnitMetrics) { m.Probes, m.Faults.Dark, m.Faults.Churn = math.MaxInt64, math.MaxInt64, 1 }),
	}
	for i, r := range bad {
		if err := asm.Complete(0, r); !errors.Is(err, ErrBadCompletion) {
			t.Fatalf("bad completion %d: err = %v, want ErrBadCompletion", i, err)
		}
	}
	if err := asm.Complete(0, res); err != nil {
		t.Fatal(err)
	}
	if err := asm.Complete(0, res); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate completion: err = %v", err)
	}
	for i, r := range bad {
		if err := asm.Complete(0, r); !errors.Is(err, ErrBadCompletion) {
			t.Fatalf("bad completion %d of a completed unit: err = %v, want ErrBadCompletion", i, err)
		}
	}

	for _, seq := range asm.Pending()[1:] {
		r, err := p.ExecuteUnit(context.Background(), testNet, seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := asm.Complete(seq, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := asm.Finish(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("double finish: err = %v", err)
	}
	if err := asm.Complete(1, res); err == nil || !strings.Contains(err.Error(), "finished") {
		t.Fatalf("completion after finish: err = %v", err)
	}
}

// TestAssemblyAbort: the cancellation path closes the span without the
// end-of-run accounting and stays idempotent.
func TestAssemblyAbort(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)
	p := NewPlan(domains, countries, tasks, cfg)
	var col Collect
	asm, err := NewAssembly(p, &col)
	if err != nil {
		t.Fatal(err)
	}
	asm.Abort()
	asm.Abort() // second abort is a no-op, not a double-close panic
	if err := asm.Complete(0, UnitResult{}); err == nil {
		t.Fatal("completion accepted after abort")
	}
	if len(col.Outages) != 0 || col.Coverage.Requested != 0 {
		t.Fatal("abort ran the end-of-run accounting")
	}
}

// TestScheduleReturnsUnitErrors: an error from one unit — an engine
// bug, such as a result failing the unit check — stops the in-process
// pool and is returned, never dropped.
func TestScheduleReturnsUnitErrors(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)
	p := NewPlan(domains, countries, tasks, cfg)
	boom := errors.New("boom")
	err := p.schedule(context.Background(), p.shards, func(_ context.Context, _ *unitState, sh *shard) error {
		if sh.seq == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("schedule returned %v, want the unit's error", err)
	}
}
