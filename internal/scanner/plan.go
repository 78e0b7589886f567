// The plan layer: explicit, serializable work units over the
// deterministic shard construction, plus an Assembly that folds
// out-of-order unit completions back into the engine's canonical-order
// output stream.
//
// This is the engine's one composition. Run and RunVPS build a Plan
// and execute its units on the in-process pool (sched.go); the
// distributed fabric (internal/fabric) leases the same units to worker
// processes. Either way every completion goes through an Assembly, so
// both produce byte-identical output: they share the shard boundaries,
// the sticky-session slots, the reorder frontier, and the outage
// accounting — a unit executes identically no matter which process
// runs it, or how many times.
package scanner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/stats"
	"geoblock/internal/trace"
	"geoblock/internal/worldgen"
)

// WorkUnit is the leasable coordinate of one scheduler shard: which
// country chunk it is, where it sits in canonical order, and a
// fingerprint binding it to the exact tasks and sampling parameters it
// was built from. The unit deliberately carries no task payload — every
// party rebuilds the same Plan from the same inputs, and the
// fingerprint proves they agree before any work is leased.
type WorkUnit struct {
	Seq     int    `json:"seq"`
	Country string `json:"country"`
	Phase   string `json:"phase"`
	// Index is the chunk index within the country.
	Index int `json:"index"`
	// Slot is the sticky-session slot, a pure function of
	// (country, phase, index).
	Slot uint64 `json:"slot"`
	// Tasks is the unit's task count.
	Tasks int `json:"tasks"`
	// Fingerprint digests the unit's identity: country, phase, chunk,
	// slot, sampling parameters, and every task's domain string.
	Fingerprint uint64 `json:"fingerprint"`
}

// UnitResult is one executed unit: the shard's samples in task order,
// its loss reason, and what its session and fetch work counted.
type UnitResult struct {
	Samples []Sample
	Lost    OutageReason
	// Metrics is what the unit counted as it ran; Assembly.emit adds it
	// to Config.Metrics at the unit's canonical emission.
	Metrics *UnitMetrics
	// Trace holds the unit's staged wide events when tracing was on —
	// shipped back in fabric completions and appended at the assembly's
	// canonical emission point, same as an in-process shard's.
	Trace []trace.Event

	// recycle marks a sample buffer the in-process executor owns: once
	// the unit is emitted, Assembly.emit clears it and hands it to a
	// later unit. A result any other caller completes is never reused.
	recycle bool
}

// ErrBadCompletion marks a unit completion that is not its unit's
// output: a loss reason outside OutageReason, a sample count other than
// tasks × Samples, a sample out of the unit's canonical (domain,
// country, attempt) order, or metrics missing or not what an execution
// of the unit counts (see UnitMetrics.check).
var ErrBadCompletion = errors.New("scanner: completion is not its unit's output")

// Plan is the deterministic decomposition of one scan into work units.
// Two plans built from the same (domains, countries, tasks, cfg) are
// identical — same shard boundaries, same slots, same fingerprints —
// which is what lets a coordinator and its workers each build their own
// copy and agree unit-by-unit.
type Plan struct {
	domains   []string
	countries []geo.CountryCode
	// fleet is set for a VPS-fleet plan: groups are fleet positions,
	// units run without a session, and the scan has no outage
	// accounting.
	fleet   []*proxy.VPS
	cfg     Config
	headers headerSet // cfg.Headers, built once for every unit
	scanCtx trace.SpanCtx
	shards  []shard
	// unitCap is the largest unit's sample count: the capacity of every
	// unit's sample buffer, so that a recycled one fits any unit.
	unitCap int

	// mu guards the plan's domains resolved against world, the world
	// that executes the plan (resolve). It is not part of what a plan
	// is: two plans of one scan agree whatever they have resolved.
	mu      sync.Mutex
	world   *worldgen.World
	targets []target
}

// NewPlan decomposes one residential scan into its canonical work
// units, with cfg normalized to the §4.1.1 defaults.
func NewPlan(domains []string, countries []geo.CountryCode, tasks []Task, cfg Config) *Plan {
	return newPlan(domains, countries, nil, tasks, cfg)
}

// newPlan is the one shard construction: country-major grouping,
// deterministic chunking, and per-chunk session slots (slot 0 for a
// fleet, whose vantage points have no session to pin). Boundaries
// depend only on the task lists and ShardSize — never on Concurrency —
// so the shard set, the determinism anchor, is stable across any
// worker count. The grouped tasks share one backing array, put in
// place by a stable counting sort, and the shards another.
func newPlan(domains []string, countries []geo.CountryCode, fleet []*proxy.VPS, tasks []Task, cfg Config) *Plan {
	cfg = cfg.withDefaults()
	p := &Plan{domains: domains, countries: countries, fleet: fleet, cfg: cfg, headers: newHeaderSet(cfg.Headers), scanCtx: ScanTraceCtx(cfg)}
	// end[g] counts group g's tasks, then marks where the group ends in
	// grouped and, once the tasks are placed, where it starts.
	end := make([]int, len(countries))
	for _, t := range tasks {
		end[t.Country]++
	}
	units := 0
	for g := range end {
		units += (end[g] + cfg.ShardSize - 1) / cfg.ShardSize
		if g > 0 {
			end[g] += end[g-1]
		}
	}
	grouped := make([]Task, len(tasks))
	for i := len(tasks) - 1; i >= 0; i-- {
		t := tasks[i]
		end[t.Country]--
		grouped[end[t.Country]] = t
	}
	p.shards = make([]shard, 0, units)
	for g := range countries {
		cc := string(countries[g])
		hi := len(grouped)
		if g+1 < len(end) {
			hi = end[g+1]
		}
		tasks := grouped[end[g]:hi]
		for i := 0; len(tasks) > 0; i++ {
			n := min(cfg.ShardSize, len(tasks))
			sh := shard{seq: len(p.shards), group: int16(g), index: i, country: cc, tasks: tasks[:n]}
			if fleet == nil {
				sh.slot = shardSlot(cc, cfg.Phase, i)
			}
			p.shards = append(p.shards, sh)
			p.unitCap = max(p.unitCap, n*cfg.Samples)
			tasks = tasks[n:]
		}
	}
	return p
}

// NumUnits returns the number of work units in the plan.
func (p *Plan) NumUnits() int { return len(p.shards) }

// Unit returns the seq-th work unit.
func (p *Plan) Unit(seq int) WorkUnit {
	sh := &p.shards[seq]
	return WorkUnit{
		Seq:         sh.seq,
		Country:     sh.country,
		Phase:       p.cfg.Phase,
		Index:       sh.index,
		Slot:        sh.slot,
		Tasks:       len(sh.tasks),
		Fingerprint: p.unitFingerprint(sh),
	}
}

// Units materializes every work unit in canonical order.
func (p *Plan) Units() []WorkUnit {
	out := make([]WorkUnit, len(p.shards))
	for i := range p.shards {
		out[i] = p.Unit(i)
	}
	return out
}

// unitFingerprint digests one shard's identity, folding in the task
// contents (domain strings and country indices) and the sampling
// parameters that shape its output.
func (p *Plan) unitFingerprint(sh *shard) uint64 {
	h := stats.Hash("geoblock-unit")
	h = stats.Mix64(h ^ stats.Hash(sh.country))
	h = stats.Mix64(h ^ stats.Hash(p.cfg.Phase))
	h = stats.Mix64(h ^ uint64(sh.index)<<1 ^ sh.slot)
	h = stats.Mix64(h ^ uint64(p.cfg.Samples)<<8 ^ uint64(p.cfg.Retries)<<16)
	for _, t := range sh.tasks {
		h = stats.Mix64(h ^ stats.Hash(p.domains[t.Domain]) ^ uint64(uint16(t.Country))<<32)
	}
	return h
}

// Fingerprint digests the whole plan: every unit fingerprint plus the
// wire-visible config knobs (never Concurrency — that is free to vary).
// A coordinator and a worker whose plan fingerprints agree will agree
// on every unit.
func (p *Plan) Fingerprint() uint64 {
	h := stats.Hash("geoblock-plan")
	h = stats.Mix64(h ^ uint64(len(p.domains)) ^ uint64(len(p.countries))<<20)
	h = stats.Mix64(h ^ uint64(p.cfg.ShardSize))
	h = stats.Mix64(h ^ uint64(p.cfg.Bodies)<<4)
	h = MixHeaders(h, p.cfg.Headers)
	for i := range p.shards {
		h = stats.Mix64(h ^ p.unitFingerprint(&p.shards[i]))
	}
	return h
}

// MixHeaders folds a header set into the digest h in sorted key order,
// so equal sets digest alike whatever their map order.
func MixHeaders(h uint64, headers map[string]string) uint64 {
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h = stats.Mix64(h ^ stats.Hash(k) ^ stats.Hash(headers[k])<<1)
	}
	return h
}

// ExecuteUnit runs one unit through the session and fetcher layers
// against net, its metrics counted in the result. Execution never
// mutates the plan, so a unit can run any number of
// times (a re-issued lease after a worker death, say) with identical
// results. A cancelled context returns ctx.Err() and no result — a
// partial shard must never be reported as complete. Each call runs on
// fresh unit state, and the result's samples are the caller's.
func (p *Plan) ExecuteUnit(ctx context.Context, net *proxy.Network, seq int) (UnitResult, error) {
	if seq < 0 || seq >= len(p.shards) {
		return UnitResult{}, fmt.Errorf("scanner: unit %d outside plan of %d units", seq, len(p.shards))
	}
	res := p.execute(ctx, net, &p.shards[seq], new(unitState))
	if err := ctx.Err(); err != nil {
		return UnitResult{}, err
	}
	return res, nil
}

// resolve returns the plan's domains resolved against w, indexed by
// Task.Domain. The table is built once, at the first unit w executes,
// and read by every unit after it; a call with another world builds
// that world's.
func (p *Plan) resolve(w *worldgen.World) []target {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.world != w {
		ts := make([]target, len(p.domains))
		for i, domain := range p.domains {
			ts[i] = newTarget(w, domain)
		}
		p.world, p.targets = w, ts
	}
	return p.targets
}

// unitState is what a unit executes in: the fetcher, with the reply
// and destination its probes write into, the session, with the proxy
// session it opens in place, and an emptied sample buffer of capacity
// Plan.unitCap, nil until one is handed back. Each pool worker owns one
// and resets it for every unit it runs, so a unit allocates only its
// UnitMetrics, which outlives it in the journal's checkpoints.
type unitState struct {
	f   fetcher
	se  session
	buf []Sample
}

// execute runs one unit in u. Its session and fetch metrics accumulate
// in the result's Metrics, and its samples in u's buffer, which the
// result then owns.
func (p *Plan) execute(ctx context.Context, net *proxy.Network, sh *shard, u *unitState) UnitResult {
	tb := unitBuffer(p.scanCtx, sh.seq, p.cfg)
	res := UnitResult{Metrics: new(UnitMetrics)}
	out := u.buf
	u.buf = nil
	if out == nil {
		out = make([]Sample, 0, p.unitCap)
	}
	if p.fleet != nil {
		v := p.fleet[sh.group]
		res.Samples = scanVPSShard(ctx, v, p, p.resolve(v.Stack().World), sh, &u.f, tb, res.Metrics, out)
	} else {
		res.Samples, res.Lost = scanShard(ctx, net, p, p.resolve(net.World), sh, u, tb, res.Metrics, out)
	}
	res.Trace = tb.Events()
	return res
}

// run is the in-process executor: the work-stealing pool executes
// every pending unit and completes it through an Assembly into sink,
// and each worker takes back an emitted unit's buffer for its next
// unit. A cancelled scan returns ctx.Err() with a prefix of the stream
// delivered, ending at the first unit boundary after the cancel.
func (p *Plan) run(ctx context.Context, net *proxy.Network, sink Sink) error {
	a, err := NewAssembly(p, sink)
	if err != nil {
		return err
	}
	a.ctx = ctx
	err = p.schedule(ctx, p.shards[a.skip:], func(ctx context.Context, u *unitState, sh *shard) error {
		res := p.execute(ctx, net, sh, u)
		if ctx.Err() != nil {
			return nil // a cancelled unit is never completed
		}
		res.recycle = true
		buf, err := a.complete(sh.seq, res)
		u.buf = buf
		return err
	})
	if err != nil {
		a.Abort()
		return err
	}
	return a.Finish()
}

// check verifies that res has the shape only sh's execution produces:
// every executed unit emits one sample per task and attempt, in task
// order — a lost unit's samples carry ErrNoExits — and counts at most
// 1+Retries fetch attempts per sample, so anything else is a foreign or
// corrupted payload.
func (p *Plan) check(sh *shard, res UnitResult) error {
	if res.Lost > OutageDark {
		return fmt.Errorf("%w: unit %d has loss reason %d", ErrBadCompletion, sh.seq, res.Lost)
	}
	n := p.cfg.Samples
	if len(res.Samples) != len(sh.tasks)*n {
		return fmt.Errorf("%w: unit %d carries %d samples, want %d", ErrBadCompletion, sh.seq, len(res.Samples), len(sh.tasks)*n)
	}
	for i, t := range sh.tasks {
		for a := 0; a < n; a++ {
			s := &res.Samples[i*n+a]
			if s.Domain != t.Domain || s.Country != t.Country || s.Attempt != uint8(a) {
				return fmt.Errorf("%w: unit %d sample %d is (domain %d, country %d, attempt %d), want (%d, %d, %d)",
					ErrBadCompletion, sh.seq, i*n+a, s.Domain, s.Country, s.Attempt, t.Domain, t.Country, uint8(a))
			}
		}
	}
	if res.Metrics == nil {
		return fmt.Errorf("%w: unit %d carries no metrics", ErrBadCompletion, sh.seq)
	}
	if err := res.Metrics.check(int64(len(res.Samples) * (1 + p.cfg.Retries))); err != nil {
		return fmt.Errorf("%w: unit %d metrics: %v", ErrBadCompletion, sh.seq, err)
	}
	return nil
}

// Assembly is the reorder buffer behind every scan: it takes unit
// completions — in any order, from any number of executors — and emits
// them into the sink in canonical order, with the counter, trace, and
// outage accounting attached, then runs the end-of-scan accounting.
// Completions are accepted under an internal lock, so the sink still
// sees strictly sequential canonical-order delivery, exactly as the
// engine's determinism contract promises.
type Assembly struct {
	mu        sync.Mutex
	plan      *Plan
	sink      Sink
	shardSink ShardSink // sink's ShardSink side, when it has one
	done      []bool
	next      int // the reorder frontier: units before it are emitted
	skip      int
	finished  bool
	// free holds the cleared sample buffers of emitted units that the
	// in-process executor produced, for its workers' next units.
	free [][]Sample
	// ctx, when set, stops delivery at the first unit boundary after it
	// is cancelled. The in-process executor sets it; the fabric cancels
	// through Abort.
	ctx context.Context
}

// NewAssembly prepares the reassembly for one scan: it validates and
// credits the resumed prefix (cfg.Resume) and parks the reorder
// frontier past the skipped units.
func NewAssembly(p *Plan, sink Sink) (*Assembly, error) {
	skip, err := resumePrefix(p.cfg, p.shards)
	if err != nil {
		return nil, err
	}
	reg := p.cfg.Metrics
	if len(p.shards) > 0 {
		reg.Counter(MetShardsScheduled).Add(int64(len(p.shards)))
	}
	if skip > 0 {
		// The shards-done credit a live run of the skipped prefix would
		// have produced. The prefix's samples and session/fetch metrics
		// come back through the journal's replay (see internal/runstore),
		// and its loss records through resumePrefix.
		reg.Counter(MetShardsDone).Add(int64(skip))
	}
	a := &Assembly{plan: p, sink: sink, done: make([]bool, len(p.shards)), next: skip, skip: skip}
	a.shardSink, _ = sink.(ShardSink)
	return a, nil
}

// resumePrefix validates cfg.Resume against the freshly built shard
// set and stamps the restored loss records onto the skipped prefix, so
// the end-of-run outage and coverage accounting — which walks all
// shards — reproduces the uninterrupted run's records exactly.
func resumePrefix(cfg Config, shards []shard) (int, error) {
	r := cfg.Resume
	if r == nil {
		return 0, nil
	}
	if r.Shards < 0 || r.Shards > len(shards) {
		return 0, fmt.Errorf("scanner: resume prefix of %d shards outside 0..%d", r.Shards, len(shards))
	}
	if len(r.Lost) != r.Shards {
		return 0, fmt.Errorf("scanner: resume carries %d loss records for %d shards", len(r.Lost), r.Shards)
	}
	for i := 0; i < r.Shards; i++ {
		shards[i].res.Lost = r.Lost[i]
	}
	return r.Shards, nil
}

// Pending lists the unit sequence numbers still to execute, in
// canonical order (the resumed prefix is excluded).
func (a *Assembly) Pending() []int {
	out := make([]int, 0, len(a.plan.shards)-a.skip)
	for i := a.skip; i < len(a.plan.shards); i++ {
		out = append(out, i)
	}
	return out
}

// Complete folds one executed unit into the assembly. Safe to call from
// any goroutine. A result that is not the unit's output errors with
// ErrBadCompletion; duplicate and out-of-range completions error too,
// and none of them disturb the stream.
func (a *Assembly) Complete(seq int, res UnitResult) error {
	_, err := a.complete(seq, res)
	return err
}

// complete is Complete. For a result the in-process executor marked
// for recycling, it also returns a cleared buffer from the free list,
// nil when the list is empty, for the worker's next unit.
func (a *Assembly) complete(seq int, res UnitResult) ([]Sample, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.plan
	if a.finished {
		return nil, fmt.Errorf("scanner: completion of unit %d after assembly finished", seq)
	}
	if seq < a.skip || seq >= len(p.shards) {
		return nil, fmt.Errorf("scanner: completion of unit %d outside pending range %d..%d", seq, a.skip, len(p.shards)-1)
	}
	sh := &p.shards[seq]
	if err := p.check(sh, res); err != nil {
		return nil, err
	}
	if a.done[seq] {
		return nil, fmt.Errorf("scanner: duplicate completion of unit %d", seq)
	}
	sh.res = res
	a.done[seq] = true
	p.cfg.Metrics.Counter(MetShardsDone).Add(1)
	a.emit()
	if n := len(a.free); res.recycle && n > 0 {
		buf := a.free[n-1]
		a.free = a.free[:n-1]
		return buf, nil
	}
	return nil, nil
}

// emit delivers every completed unit at the reorder frontier: samples
// to the sink, the unit's metrics into the registry, a ShardDone to a
// journaling sink, and the unit's events to the tracer. All of it
// happens at this one canonical point, which is what makes the
// metrics, journal, and trace identical regardless of scheduling or
// process count.
func (a *Assembly) emit() {
	p := a.plan
	reg, tr := p.cfg.Metrics, p.cfg.Trace
	for a.next < len(p.shards) && a.done[a.next] {
		if a.ctx != nil && a.ctx.Err() != nil {
			return
		}
		sh := &p.shards[a.next]
		res := sh.res
		for i := range res.Samples {
			a.sink.Emit(res.Samples[i])
		}
		if reg != nil {
			var bytes int64
			for i := range res.Samples {
				bytes += int64(res.Samples[i].BodyLen)
			}
			reg.Counter(MetSinkSamples).Add(int64(len(res.Samples)))
			reg.Counter(MetSinkBytes).Add(bytes)
			res.Metrics.AddTo(reg, sh.country)
		}
		if a.shardSink != nil {
			a.shardSink.EmitShardDone(ShardDone{
				Seq:     sh.seq,
				Country: sh.country,
				Tasks:   len(sh.tasks),
				Samples: len(res.Samples),
				Lost:    res.Lost,
				Metrics: res.Metrics,
			})
		}
		if tr != nil {
			// Unit events land in frontier order, then the emission
			// itself is recorded.
			tr.Append(res.Trace)
			ev := trace.NewEvent(p.scanCtx.Child("sink.emit", sh.seq), "sink.emit")
			ev.Parent = p.scanCtx.Span
			ev.Unit = sh.seq
			ev.Country = sh.country
			ev.Phase = p.cfg.Phase
			ev.Outcome = outcome(res.Lost)
			ev.WallNS = tr.Now()
			ev.Attrs = []trace.Attr{{K: "samples", V: strconv.Itoa(len(res.Samples))}}
			tr.Record(ev)
		}
		// Release bodies as soon as the sink has seen them.
		sh.res = UnitResult{Lost: res.Lost}
		if res.recycle {
			clear(res.Samples)
			a.free = append(a.free, res.Samples[:0])
		}
		a.next++
	}
}

// Done reports whether every unit has been emitted.
func (a *Assembly) Done() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next == len(a.plan.shards)
}

// Finish runs the end-of-scan accounting: the per-country outages and
// coverage (to an OutageSink, the registry, and the trace) and the
// closing "scan" event. A fleet plan has no sessions to lose, so its
// tail is the "scan" event alone. Finish errors if units are still
// outstanding.
func (a *Assembly) Finish() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.plan
	if a.finished {
		return fmt.Errorf("scanner: assembly finished twice")
	}
	if a.next != len(p.shards) {
		return fmt.Errorf("scanner: assembly finished with %d of %d units outstanding", len(p.shards)-a.next, len(p.shards))
	}
	a.finished = true
	if p.fleet != nil {
		recordScanTail(p.cfg.Trace, p.scanCtx, p.cfg.Phase, nil, len(p.shards))
		return nil
	}
	outages, cov := accountOutages(p.shards, p.countries)
	countOutages(p.cfg.Metrics, outages, cov)
	recordScanTail(p.cfg.Trace, p.scanCtx, p.cfg.Phase, outages, len(p.shards))
	if os, ok := a.sink.(OutageSink); ok {
		for _, o := range outages {
			os.EmitOutage(o)
		}
		os.EmitCoverage(cov)
	}
	return nil
}

// Abort finishes the assembly without the end-of-scan accounting — the
// cancellation path.
func (a *Assembly) Abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.finished = true
}
