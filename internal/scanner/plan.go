// The plan layer: explicit, serializable work units over the
// deterministic shard construction, plus an Assembly that folds
// out-of-order unit completions back into the engine's canonical-order
// output stream.
//
// scanner.Run is the single-process composition of these pieces; the
// distributed fabric (internal/fabric) is the multi-process one. Both
// produce byte-identical output because they share the shard
// boundaries, the sticky-session slots, the reorder frontier, and the
// outage accounting — a unit executes identically no matter which
// process runs it, or how many times.
package scanner

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
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
// its loss reason, and the full snapshot of the metrics its session
// and fetch work staged (nil when the plan carries no registry and the
// executor was asked not to stage).
type UnitResult struct {
	Samples []Sample
	Lost    OutageReason
	Metrics *telemetry.Snapshot
	// Trace holds the unit's staged wide events when tracing was on —
	// shipped back in fabric completions and appended at the assembly's
	// canonical emission point, same as an in-process shard's.
	Trace []trace.Event
}

// Plan is the deterministic decomposition of one scan into work units.
// Two plans built from the same (domains, countries, tasks, cfg) are
// identical — same shard boundaries, same slots, same fingerprints —
// which is what lets a coordinator and its workers each build their own
// copy and agree unit-by-unit.
type Plan struct {
	domains   []string
	countries []geo.CountryCode
	cfg       Config
	pol       RetryPolicy
	shards    []*shard
}

// buildCountryShards is the shared shard construction: country-major
// grouping, deterministic chunking, and per-chunk session slots. Run
// and NewPlan must stay on this one code path — the shard set is the
// determinism anchor.
func buildCountryShards(countries []geo.CountryCode, tasks []Task, cfg Config) []*shard {
	byCountry := make([][]Task, len(countries))
	for _, t := range tasks {
		byCountry[t.Country] = append(byCountry[t.Country], t)
	}
	return buildShards(byCountry, cfg.ShardSize, func(group int16, index int) uint64 {
		return shardSlot(string(countries[group]), cfg.Phase, index)
	})
}

// NewPlan decomposes one scan into its canonical work units. cfg is
// normalized exactly as Run normalizes it, so a Plan built from a wire
// config and one built in-process agree.
func NewPlan(domains []string, countries []geo.CountryCode, tasks []Task, cfg Config) *Plan {
	cfg = cfg.withDefaults()
	return &Plan{
		domains:   domains,
		countries: countries,
		cfg:       cfg,
		pol:       cfg.retryPolicy(),
		shards:    buildCountryShards(countries, tasks, cfg),
	}
}

// NumUnits returns the number of work units in the plan.
func (p *Plan) NumUnits() int { return len(p.shards) }

// Unit returns the seq-th work unit.
func (p *Plan) Unit(seq int) WorkUnit {
	sh := p.shards[seq]
	return WorkUnit{
		Seq:         sh.seq,
		Country:     string(p.countries[sh.group]),
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
	h = stats.Mix64(h ^ stats.Hash(string(p.countries[sh.group])))
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
	h = stats.Mix64(h ^ uint64(p.cfg.ShardSize) ^ uint64(p.cfg.RequestsPerExit)<<16 ^ uint64(p.cfg.MaxRedirects)<<32)
	h = stats.Mix64(h ^ uint64(p.cfg.Bodies)<<4)
	if p.cfg.VerifyConnectivity {
		h = stats.Mix64(h ^ 1)
	}
	keys := make([]string, 0, len(p.cfg.Headers))
	for k := range p.cfg.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h = stats.Mix64(h ^ stats.Hash(k) ^ stats.Hash(p.cfg.Headers[k])<<1)
	}
	for _, sh := range p.shards {
		h = stats.Mix64(h ^ p.unitFingerprint(sh))
	}
	return h
}

// ExecuteUnit runs one unit through the session and fetcher layers
// against net, staging its metrics in a fresh shard-local registry.
// Execution never mutates the plan, so a unit can run any number of
// times (a re-issued lease after a worker death, say) with identical
// results. A cancelled context returns ctx.Err() and no result — a
// partial shard must never be reported as complete.
func (p *Plan) ExecuteUnit(ctx context.Context, net *proxy.Network, seq int) (UnitResult, error) {
	if seq < 0 || seq >= len(p.shards) {
		return UnitResult{}, fmt.Errorf("scanner: unit %d outside plan of %d units", seq, len(p.shards))
	}
	src := p.shards[seq]
	sh := &shard{seq: src.seq, group: src.group, index: src.index, slot: src.slot, tasks: src.tasks}
	staging := telemetry.NewWithClock(p.cfg.Metrics.Clock())
	scfg := p.cfg
	scfg.Metrics = staging
	tb := unitBuffer(ScanTraceCtx(p.cfg), seq, p.cfg)
	out := scanShard(ctx, net, p.domains, p.countries, sh, scfg, p.pol, tb)
	if err := ctx.Err(); err != nil {
		return UnitResult{}, err
	}
	return UnitResult{Samples: out, Lost: sh.lost, Metrics: staging.Snapshot(), Trace: tb.Events()}, nil
}

// Assembly reassembles unit completions — arriving in any order, from
// any number of executors — into the engine's canonical-order sink
// stream, with the identical counter, trace, and outage accounting an
// in-process Run produces. Completions are accepted under an internal
// lock; the sink itself still sees strictly sequential canonical-order
// delivery, exactly as the engine's determinism contract promises.
type Assembly struct {
	mu       sync.Mutex
	plan     *Plan
	sink     Sink
	em       *emitter
	skip     int
	finished bool
}

// NewAssembly prepares the reassembly for one scan: it validates and
// credits the resumed prefix (cfg.Resume) and parks the reorder
// frontier past the skipped units.
func NewAssembly(p *Plan, sink Sink) (*Assembly, error) {
	skip, err := resumePrefix(p.cfg, p.shards)
	if err != nil {
		return nil, err
	}
	creditSkipped(p.cfg, skip)
	if len(p.shards) > 0 {
		p.cfg.Metrics.Counter(MetShardsScheduled).Add(int64(len(p.shards)))
	}
	em := newEmitter(sink, p.shards, skip, p.cfg.Metrics, p.cfg.Trace, ScanTraceCtx(p.cfg), p.cfg.Phase)
	return &Assembly{plan: p, sink: sink, em: em, skip: skip}, nil
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
// any goroutine; duplicate and out-of-range completions error without
// disturbing the stream.
func (a *Assembly) Complete(seq int, res UnitResult) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return fmt.Errorf("scanner: completion of unit %d after assembly finished", seq)
	}
	if seq < a.skip || seq >= len(a.plan.shards) {
		return fmt.Errorf("scanner: completion of unit %d outside pending range %d..%d", seq, a.skip, len(a.plan.shards)-1)
	}
	if a.em.completed(seq) {
		return fmt.Errorf("scanner: duplicate completion of unit %d", seq)
	}
	sh := a.plan.shards[seq]
	sh.country = string(a.plan.countries[sh.group])
	sh.out = res.Samples
	sh.lost = res.Lost
	sh.events = res.Trace
	if res.Metrics != nil && a.plan.cfg.Metrics != nil {
		// Rehydrate the unit's staged metrics into a shard-local registry
		// so the emitter's merge-at-emission and ShardDone.Metrics bytes
		// match an in-process run exactly.
		st := telemetry.NewWithClock(a.plan.cfg.Metrics.Clock())
		st.Merge(res.Metrics)
		sh.staging = st
	}
	a.plan.cfg.Metrics.Counter(MetShardsDone).Add(1)
	a.em.complete(sh)
	return nil
}

// Done reports whether every unit has been emitted.
func (a *Assembly) Done() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.em.frontier() == len(a.plan.shards)
}

// Finish runs the end-of-run outage and coverage accounting, mirroring
// Run's tail exactly. It errors if units are still outstanding.
func (a *Assembly) Finish() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return fmt.Errorf("scanner: assembly finished twice")
	}
	if n := a.em.frontier(); n != len(a.plan.shards) {
		return fmt.Errorf("scanner: assembly finished with %d of %d units outstanding", len(a.plan.shards)-n, len(a.plan.shards))
	}
	a.finished = true
	cfg := a.plan.cfg
	os, isOutageSink := a.sink.(OutageSink)
	if isOutageSink || cfg.Metrics != nil || cfg.Trace != nil {
		outages, cov := accountOutages(a.plan.shards, a.plan.countries)
		countOutages(cfg.Metrics, outages, cov)
		recordScanTail(cfg.Trace, ScanTraceCtx(cfg), cfg.Phase, outages, len(a.plan.shards))
		if isOutageSink {
			for _, o := range outages {
				os.EmitOutage(o)
			}
			os.EmitCoverage(cov)
		}
	}
	return nil
}

// Abort finishes the assembly without the end-of-run accounting — the
// cancellation path, mirroring Run's early return after a cancelled
// schedule.
func (a *Assembly) Abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.finished = true
}

// completed reports whether seq has already been completed.
func (e *emitter) completed(seq int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done[seq]
}

// frontier reports how many shards have been emitted in canonical
// order.
func (e *emitter) frontier() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.next
}
