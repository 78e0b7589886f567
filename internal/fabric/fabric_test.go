package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"geoblock/internal/faults"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/worldgen"
)

var (
	testWorld = worldgen.Generate(worldgen.TestConfig())
	testNet   = proxy.NewNetwork(testWorld)
)

// yield is the test worker's Sleep hook: no wall-clock waiting, just a
// scheduler yield so the poll loop stays deterministic-friendly.
func yield(time.Duration) { runtime.Gosched() }

// fabricInputs is a scan small enough to run in every matrix cell but
// large enough to shard across several units per country.
func fabricInputs() ([]string, []geo.CountryCode, []scanner.Task, scanner.Config) {
	var domains []string
	for _, d := range testWorld.Top10K()[:30] {
		domains = append(domains, d.Name)
	}
	countries := []geo.CountryCode{"US", "DE", "IR", "SY", "BR"}
	tasks := scanner.CrossProduct(len(domains), len(countries))
	cfg := scanner.Config{
		Samples:   2,
		Retries:   2,
		ShardSize: 8,
		Headers:   scanner.BrowserHeaders(),
		Phase:     "initial",
	}
	return domains, countries, tasks, cfg
}

// runReference runs the phase through the in-process engine at the
// given concurrency.
func runReference(t *testing.T, concurrency int) (*scanner.Collect, string) {
	t.Helper()
	domains, countries, tasks, cfg := fabricInputs()
	reg := telemetry.New()
	cfg.Metrics = reg
	cfg.Concurrency = concurrency
	col := &scanner.Collect{}
	if err := scanner.Run(context.Background(), testNet, domains, countries, tasks, cfg, col); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return col, reg.Snapshot().Deterministic().Text()
}

// runFabric runs the same phase through a coordinator and nWorkers
// workers. When kill is set, one extra worker executes a unit, dies via
// the WorkerDeath chaos hook before reporting it, and the survivors
// re-lease its outstanding units.
func runFabric(t *testing.T, nWorkers int, kill bool) (*scanner.Collect, string) {
	t.Helper()
	domains, countries, tasks, cfg := fabricInputs()
	reg := telemetry.New()
	cfg.Metrics = reg
	coord := New(Options{
		Study:   StudySpec{World: worldgen.TestConfig()},
		Metrics: reg,
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	col := &scanner.Collect{}
	var wg sync.WaitGroup
	phaseErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		phaseErr <- coord.RunPhase(ctx, domains, countries, tasks, cfg, col)
	}()

	if kill {
		// The victim runs synchronously: it leases a unit, executes it,
		// and dies before reporting — deterministically, before any
		// survivor is started.
		victim, err := NewWorker(ctx, WorkerOptions{
			Coordinator: srv.URL, Name: "victim", Sleep: yield,
			Kill: faults.New(7).WorkerDeath(1),
		})
		if err != nil {
			t.Fatalf("victim worker: %v", err)
		}
		if err := victim.Run(ctx); !errors.Is(err, ErrKilled) {
			t.Fatalf("victim died with %v, want ErrKilled", err)
		}
	}

	workerErrs := make([]error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(ctx, WorkerOptions{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("w%d", i),
				Sleep:       yield,
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}

	if err := <-phaseErr; err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	coord.FinishStudy()
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return col, reg.Snapshot().Deterministic().Text()
}

// TestFabricByteIdentity is the core guarantee: the fabric's merged
// output — samples, outages, coverage, deterministic telemetry — is
// identical to the in-process engine's, at any worker count, at any
// reference concurrency, and across a worker death mid-shard.
func TestFabricByteIdentity(t *testing.T) {
	refCol, refSnap := runReference(t, 1)
	for _, conc := range []int{4, 32} {
		col, snap := runReference(t, conc)
		if !reflect.DeepEqual(col, refCol) || snap != refSnap {
			t.Fatalf("in-process run at concurrency %d diverges from concurrency 1", conc)
		}
	}
	for _, tc := range []struct {
		workers int
		kill    bool
	}{{1, false}, {2, true}, {4, true}} {
		col, snap := runFabric(t, tc.workers, tc.kill)
		if !reflect.DeepEqual(col.Samples, refCol.Samples) {
			t.Fatalf("workers=%d kill=%v: samples diverge (%d vs %d)", tc.workers, tc.kill, len(col.Samples), len(refCol.Samples))
		}
		if !reflect.DeepEqual(col.Outages, refCol.Outages) {
			t.Fatalf("workers=%d kill=%v: outages diverge", tc.workers, tc.kill)
		}
		if !reflect.DeepEqual(col.Coverage, refCol.Coverage) {
			t.Fatalf("workers=%d kill=%v: coverage diverges", tc.workers, tc.kill)
		}
		if snap != refSnap {
			t.Fatalf("workers=%d kill=%v: deterministic snapshots diverge:\n%s\n---\n%s", tc.workers, tc.kill, snap, refSnap)
		}
	}
}

// TestLeaseLifecycle drives the lease rule by hand: a cancelled phase
// returns the context's error; grants hand out never-leased units in
// canonical order, the first one of a phase with the phase's spec; once
// every unit is leased, the next grant re-leases unit 0 onward under
// new lease numbers with no clock advanced; and a phase whose units are
// all complete answers wait.
func TestLeaseLifecycle(t *testing.T) {
	_, _, _, cfg := fabricInputs()
	coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}})
	if err := openPhase(coord, cfg)(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunPhase returned %v", err)
	}
	stop := openPhase(coord, cfg)
	defer stop()

	// Max 1 keeps the walk single-step; the batch shape gets its own
	// assertions below.
	w := &Worker{world: testWorld, net: testNet}
	lease := func(max int) LeaseGrant {
		t.Helper()
		rec := post(coord, PathLease, "", fmt.Appendf(nil, `{"worker":"probe","max":%d,"phase":%d}`, max, w.phaseID))
		var g LeaseGrant
		if err := json.Unmarshal(rec.Body.Bytes(), &g); err != nil {
			t.Fatalf("lease answered %d: %s", rec.Code, rec.Body)
		}
		return g
	}

	g0 := lease(1)
	if g0.Status != StatusUnit || g0.Phase != 2 || len(g0.Units) != 1 || g0.Units[0].Seq != 0 || g0.Spec == nil {
		t.Fatalf("first grant = %+v, want exactly unit 0 of phase 2 with the phase's spec", g0)
	}
	if err := w.ensurePhase(g0); err != nil {
		t.Fatal(err)
	}
	u0 := g0.Units[0]
	// A batched request takes the next units in canonical order, each
	// under its own fresh lease ID, and no spec: it names the phase.
	gb := lease(3)
	if len(gb.Units) != 3 || gb.Spec != nil {
		t.Fatalf("batch grant = %+v, want 3 units without a spec", gb)
	}
	for i, u := range gb.Units {
		if u.Seq != i+1 {
			t.Fatalf("batch grant unit %d = %+v, want seq %d", i, u, i+1)
		}
		if u.Lease == u0.Lease || (i > 0 && u.Lease == gb.Units[i-1].Lease) {
			t.Fatalf("batch grant reused a lease ID: %+v", gb.Units)
		}
	}
	numUnits := w.plan.NumUnits()
	for i := 4; i < numUnits-2; i++ {
		if g := lease(1); len(g.Units) != 1 || g.Units[0].Seq != i {
			t.Fatalf("grant %d = %+v, want unit %d", i, g, i)
		}
	}
	// The last two never-leased units come alone, though the request asks
	// for more: a grant never mixes re-leased units into fresh ones.
	if g := lease(DefaultLeaseBatch); len(g.Units) != 2 || g.Units[0].Seq != numUnits-2 || g.Units[1].Seq != numUnits-1 {
		t.Fatalf("last fresh grant = %+v, want units %d and %d alone", g, numUnits-2, numUnits-1)
	}
	// Every unit is leased and none is complete: the next grant re-leases
	// outstanding units from unit 0, though no clock has moved.
	gr := lease(DefaultLeaseBatch)
	if len(gr.Units) != DefaultLeaseBatch {
		t.Fatalf("re-lease grant = %+v, want %d units", gr, DefaultLeaseBatch)
	}
	for i, u := range gr.Units {
		if u.Seq != i || u.Lease != uint64(numUnits+1+i) {
			t.Fatalf("re-lease grant unit %d = %+v, want unit %d under lease %d", i, u, i, numUnits+1+i)
		}
	}

	// Complete every unit, each under its first lease: for the units
	// re-leased above, a superseded one, and still the completion lands.
	for seq := 0; seq < numUnits; seq++ {
		unit := w.plan.Unit(seq)
		res, err := w.plan.ExecuteUnit(context.Background(), testNet, seq)
		if err != nil {
			t.Fatal(err)
		}
		body, err := completionBody(unit, res)
		if err != nil {
			t.Fatal(err)
		}
		q := fmt.Sprintf("phase=%d&seq=%d&lease=%d&fp=%d&worker=probe", g0.Phase, seq, seq+1, unit.Fingerprint)
		if rec := post(coord, PathComplete, q, body); rec.Code != http.StatusOK {
			t.Fatalf("completion of unit %d answered %d: %s", seq, rec.Code, rec.Body)
		}
	}
	if g := lease(DefaultLeaseBatch); g.Status != StatusWait || len(g.Units) != 0 {
		t.Fatalf("a phase with every unit complete answered %+v, want wait", g)
	}
	if err := stop(); err != nil {
		t.Fatalf("drained RunPhase returned %v", err)
	}
}

// TestCompleteIdempotency executes units by hand and checks the
// coordinator's answers: duplicates ack as duplicates, fingerprint
// mismatches are rejected, and completions from superseded leases are
// still accepted (first result wins; the work is deterministic).
func TestCompleteIdempotency(t *testing.T) {
	domains, countries, tasks, cfg := fabricInputs()
	coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	col := &scanner.Collect{}
	var wg sync.WaitGroup
	phaseErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		phaseErr <- coord.RunPhase(ctx, domains, countries, tasks, cfg, col)
	}()

	w := &Worker{opts: WorkerOptions{Coordinator: srv.URL, Name: "probe"}, client: http.DefaultClient, world: testWorld, net: testNet}
	var g LeaseGrant
	for {
		if err := w.postJSON(ctx, PathLease, LeaseRequest{Worker: "probe"}, &g); err != nil {
			t.Fatalf("lease: %v", err)
		}
		if g.Status == StatusUnit {
			break
		}
		runtime.Gosched()
	}
	if err := w.ensurePhase(g); err != nil {
		t.Fatalf("ensurePhase: %v", err)
	}
	u := g.Units[0]

	post := func(seq int, lease, fp uint64) (int, string) {
		t.Helper()
		res, err := w.plan.ExecuteUnit(ctx, testNet, seq)
		if err != nil {
			t.Fatalf("ExecuteUnit(%d): %v", seq, err)
		}
		unit := w.plan.Unit(seq)
		cp := runstore.Checkpoint{Seq: seq, Country: unit.Country, Tasks: unit.Tasks, Samples: len(res.Samples), Lost: res.Lost, Metrics: res.Metrics}
		body := runstore.EncodeShardFrames(res.Samples, cp)
		url := fmt.Sprintf("%s%s?phase=%d&seq=%d&lease=%d&fp=%d&worker=probe", srv.URL, PathComplete, g.Phase, seq, lease, fp)
		resp, err := http.Post(url, "application/octet-stream", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("post complete: %v", err)
		}
		defer resp.Body.Close()
		var ack Ack
		if resp.StatusCode == http.StatusOK {
			_ = readJSON(resp, &ack)
		}
		return resp.StatusCode, ack.Status
	}

	unit0 := w.plan.Unit(u.Seq)
	if code, _ := post(u.Seq, u.Lease, unit0.Fingerprint^1); code != http.StatusConflict {
		t.Fatalf("wrong-fingerprint complete answered %d, want 409", code)
	}
	if code, status := post(u.Seq, u.Lease, unit0.Fingerprint); code != http.StatusOK || status == "duplicate" {
		t.Fatalf("first complete answered %d/%q", code, status)
	}
	if code, status := post(u.Seq, u.Lease, unit0.Fingerprint); code != http.StatusOK || status != "duplicate" {
		t.Fatalf("second complete answered %d/%q, want duplicate ack", code, status)
	}

	// Finish the phase with a stale lease ID on every remaining unit:
	// the results are deterministic, so they must all land.
	for seq := u.Seq + 1; seq < w.plan.NumUnits(); seq++ {
		if code, status := post(seq, 0, w.plan.Unit(seq).Fingerprint); code != http.StatusOK || status == "duplicate" {
			t.Fatalf("unleased complete of unit %d answered %d/%q", seq, code, status)
		}
	}
	if err := <-phaseErr; err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	coord.FinishStudy()
	wg.Wait()

	ref, _ := runReference(t, 4)
	if !reflect.DeepEqual(col.Samples, ref.Samples) {
		t.Fatal("hand-completed phase diverges from reference")
	}
}

// badCompletions encodes the completions a faulty worker could send
// for a unit whose genuine result is res: the first sample naming
// domain index 2^30, the first sample naming country index 999, one of
// the unit's samples alone, loss reason 200, no metrics, results that
// do not sum to the attempts, a body-size histogram holding one more
// observation than the ok results, more attempts than 1+Retries per
// sample allows, attempts without a fetcher, one more injected fault
// than one per hop and one dark exit per pre-check probe allow, and a
// trace field that is not JSON. Each is well framed and goes out under
// the unit's own fingerprint, so only the coordinator's checks can tell
// it from the real thing.
func badCompletions(t testing.TB, unit scanner.WorkUnit, res scanner.UnitResult) [][]byte {
	t.Helper()
	encode := func(res scanner.UnitResult) []byte {
		b, err := completionBody(unit, res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	variant := func(edit func(*scanner.UnitResult)) []byte {
		bad := res
		bad.Samples = append([]scanner.Sample(nil), res.Samples...)
		m := *res.Metrics
		bad.Metrics = &m
		edit(&bad)
		return encode(bad)
	}
	samples, cp, err := runstore.DecodeShardFrames(encode(res))
	if err != nil {
		t.Fatal(err)
	}
	cp.Trace = []byte(`[{"name":`)
	return [][]byte{
		variant(func(r *scanner.UnitResult) { r.Samples[0].Domain = 1 << 30 }),
		variant(func(r *scanner.UnitResult) { r.Samples[0].Country = 999 }),
		variant(func(r *scanner.UnitResult) { r.Samples = r.Samples[:1] }),
		variant(func(r *scanner.UnitResult) { r.Lost = 200 }),
		variant(func(r *scanner.UnitResult) { r.Metrics = nil }),
		variant(func(r *scanner.UnitResult) { r.Metrics.Results[scanner.ErrProxy]++ }),
		variant(func(r *scanner.UnitResult) { r.Metrics.Bytes.Counts[0]++ }),
		variant(func(r *scanner.UnitResult) {
			extra := int64(len(r.Samples) * 3)
			r.Metrics.Attempts += extra
			r.Metrics.Results[scanner.ErrTimeout] += extra
		}),
		variant(func(r *scanner.UnitResult) { r.Metrics.Fetcher = false }),
		variant(func(r *scanner.UnitResult) {
			r.Metrics.Faults.Dark = r.Metrics.Attempts*scanner.MaxRedirects + r.Metrics.Probes + 1
		}),
		runstore.EncodeShardFrames(samples, cp),
	}
}

// TestCompleteRejectsForeignPayloads: completions that carry the
// unit's fingerprint but not its output are answered 400 and counted,
// and leave the unit pending — the genuine completion that follows is
// accepted, and the phase output equals the in-process reference.
func TestCompleteRejectsForeignPayloads(t *testing.T) {
	domains, countries, tasks, cfg := fabricInputs()
	reg := telemetry.New()
	cfg.Metrics = reg
	coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}, Metrics: reg})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	col := &scanner.Collect{}
	var wg sync.WaitGroup
	phaseErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		phaseErr <- coord.RunPhase(ctx, domains, countries, tasks, cfg, col)
	}()

	w := &Worker{opts: WorkerOptions{Coordinator: srv.URL, Name: "probe"}, client: http.DefaultClient, world: testWorld, net: testNet}
	var g LeaseGrant
	for g.Status != StatusUnit {
		if err := w.postJSON(ctx, PathLease, LeaseRequest{Worker: "probe"}, &g); err != nil {
			t.Fatalf("lease: %v", err)
		}
		runtime.Gosched()
	}
	if err := w.ensurePhase(g); err != nil {
		t.Fatalf("ensurePhase: %v", err)
	}
	post := func(seq int, body []byte) (int, string) {
		t.Helper()
		url := fmt.Sprintf("%s%s?phase=%d&seq=%d&lease=0&fp=%d&worker=probe", srv.URL, PathComplete, g.Phase, seq, w.plan.Unit(seq).Fingerprint)
		resp, err := http.Post(url, "application/octet-stream", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("post complete: %v", err)
		}
		defer resp.Body.Close()
		var ack Ack
		if resp.StatusCode == http.StatusOK {
			_ = readJSON(resp, &ack)
		}
		return resp.StatusCode, ack.Status
	}
	execute := func(seq int) (scanner.WorkUnit, scanner.UnitResult) {
		t.Helper()
		res, err := w.plan.ExecuteUnit(ctx, testNet, seq)
		if err != nil {
			t.Fatalf("ExecuteUnit(%d): %v", seq, err)
		}
		return w.plan.Unit(seq), res
	}

	seq := g.Units[0].Seq
	unit, res := execute(seq)
	if len(res.Samples) != 16 {
		t.Fatalf("unit %d carries %d samples; the bad completions model a 16-sample unit", seq, len(res.Samples))
	}
	bad := badCompletions(t, unit, res)
	for i, body := range bad {
		if code, status := post(seq, body); code != http.StatusBadRequest {
			t.Fatalf("bad completion %d answered %d/%q, want 400", i, code, status)
		}
	}
	// A completion longer than any unit's is refused before its body
	// is read, and counted with the rest; so is a lease request longer
	// than its bound.
	oversized := httptest.NewRequest(http.MethodPost, fmt.Sprintf("%s?phase=%d&seq=%d&lease=0&fp=%d&worker=probe",
		PathComplete, g.Phase, seq, unit.Fingerprint), strings.NewReader(string(bad[0])))
	oversized.ContentLength = maxCompletionBytes + 1
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, oversized)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "exceeds") {
		t.Fatalf("an oversized completion answered %d: %s", rec.Code, rec.Body)
	}
	if n := reg.RuntimeCounter(MetRejected).Value(); n != int64(len(bad))+1 {
		t.Fatalf("%s = %d after %d rejections", MetRejected, n, len(bad)+1)
	}
	long := `{"worker":"` + strings.Repeat("w", maxRequestBytes) + `"}`
	resp, err := http.Post(srv.URL+PathLease, "application/json", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a %d-byte lease request answered %d, want 400", len(long), resp.StatusCode)
	}
	for s := 0; s < w.plan.NumUnits(); s++ {
		unit, res := execute(s)
		body, err := completionBody(unit, res)
		if err != nil {
			t.Fatal(err)
		}
		if code, status := post(s, body); code != http.StatusOK || status != "" {
			t.Fatalf("genuine completion of unit %d answered %d/%q", s, code, status)
		}
	}
	if err := <-phaseErr; err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	coord.FinishStudy()
	wg.Wait()

	ref, refSnap := runReference(t, 4)
	if !reflect.DeepEqual(col, ref) {
		t.Fatal("phase output diverges from the in-process reference")
	}
	if snap := reg.Snapshot().Deterministic().Text(); snap != refSnap {
		t.Fatalf("deterministic snapshots diverge:\n%s\n---\n%s", snap, refSnap)
	}
}

func readJSON(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestConfigWireRejections: process-local seams must not silently drop
// on the wire.
func TestConfigWireRejections(t *testing.T) {
	cfg := scanner.Config{WrapTransport: func(rt http.RoundTripper) http.RoundTripper { return rt }}
	if _, err := NewConfigWire(cfg); err == nil {
		t.Fatal("ConfigWire accepted a WrapTransport middleware")
	}
}

// TestWorkerRejectsUnknownFaultProfile: a study naming a chaos profile
// this binary does not know must fail loudly, not scan fault-free.
func TestWorkerRejectsUnknownFaultProfile(t *testing.T) {
	coord := New(Options{Study: StudySpec{
		World:  worldgen.TestConfig(),
		Faults: &FaultSpec{Seed: 1, Profile: "no-such-profile"},
	}})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	if _, err := NewWorker(context.Background(), WorkerOptions{Coordinator: srv.URL, Name: "w"}); err == nil {
		t.Fatal("NewWorker accepted an unknown fault profile")
	}
}
