// Package fabric is the distributed scan fabric: a coordinator that
// leases the deterministic shard engine's work units to N worker
// processes over HTTP and reassembles their completions into the
// engine's canonical-order output — byte-identical to a single-process
// run, journal included.
//
// The design leans entirely on the engine's determinism contract.
// Shard boundaries, session slots, and per-sample seeds are pure
// functions of the scan inputs, so a unit executes identically on any
// worker, any number of times. That turns every hard distributed-
// systems problem here into bookkeeping: a lost worker leaves units
// outstanding that the next idle worker re-leases and runs again; a
// duplicate completion is a no-op; and the reorder frontier
// (scanner.Assembly) guarantees the sink — and through the journaling
// sink, the runstore journal file — sees the exact byte stream an
// in-process run produces.
//
// Lease state machine, per unit:
//
//	pending ──lease──▶ leased ──complete──▶ done
//	                    │  ▲
//	                    └──┘  re-lease once no unit of the phase is
//	                          pending (late completes still accepted)
//
// No clock is read: a grant holds pending (never-leased) units while
// the phase has any, and only then outstanding (leased, not completed)
// ones, so a dead, stalled or slow worker's units pass to whichever
// worker asks next. Completions are validated (CRC-framed records,
// unit fingerprint, checkpoint shape, and through scanner.Assembly the
// payload against its unit's canonical task order) and accepted under
// any lease — the work is deterministic, so whoever finishes first wins
// and everyone else is a duplicate.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"geoblock/internal/geo"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/worldgen"
)

// Fabric metric names. All runtime-class: lease traffic depends on
// worker count and timing, never on the scan inputs, and must not
// pollute the deterministic snapshot the matrix byte-compares.
const (
	MetLeases     = "fabric.leases_granted"
	MetWaits      = "fabric.lease_waits"
	MetReissues   = "fabric.lease_reissues"
	MetCompletes  = "fabric.units_completed"
	MetDuplicates = "fabric.duplicate_completes"
	MetStale      = "fabric.stale_lease_completes"
	// MetRejected counts every completion answered 400: a malformed
	// request, a payload that fails to decode, or a result that is not
	// its unit's output (scanner.ErrBadCompletion).
	MetRejected = "fabric.rejected_completes"
)

// DefaultRetryMillis is how long a worker is told to wait before
// re-polling when no work is available.
const DefaultRetryMillis = 200

// The request bodies the coordinator reads, bounded so that no request
// makes it buffer more than a unit's work can carry.
const (
	// maxRequestBytes bounds a lease request: a worker's name and two
	// integers, under a kilobyte of JSON for any name a worker is
	// started with.
	maxRequestBytes = 64 << 10
	// maxCompletionBytes bounds a completion: one unit's sample records
	// and its checkpoint. A sample record is under 64 bytes of fixed
	// fields plus the body its policy keeps. The studies keep block and
	// censorship pages at most (BodyDefault), each under 3 KiB, so their
	// largest unit, 32 tasks of 20 resamples, carries under 2 MiB. Even
	// a unit of that size keeping every body (BodyAll), origin pages of
	// up to 256 KiB included (a site's base length is capped at 240,000
	// bytes), stays under 161 MiB. The checkpoint adds the unit's
	// metrics and its few trace events, a few KiB.
	maxCompletionBytes = 256 << 20
)

// Options configures a Coordinator.
type Options struct {
	// Study carries the world calibration (and optional fault profile)
	// workers regenerate the coordinator's world from.
	Study StudySpec
	// Metrics, when non-nil, receives the fabric's runtime-class lease
	// counters.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives the fabric's runtime-class lease
	// events and becomes the default tracer for phases whose config
	// carries none — the merged timeline a 3-process run exports.
	Trace *trace.Tracer
	// Log, when non-nil, receives fabric progress lines.
	Log func(format string, args ...any)
}

// unitState tracks one work unit through the lease state machine.
type unitState struct {
	leased    bool
	lease     uint64
	worker    string
	completed bool
}

// phaseRun is one scan phase in flight.
type phaseRun struct {
	id        int
	plan      *scanner.Plan
	asm       *scanner.Assembly
	specJSON  []byte
	order     []int // unit seqs to run (no resumed prefix), canonical order
	units     map[int]*unitState
	remaining int
	done      chan struct{}
	err       error
	// tr/traceCtx/phaseName key the runtime-class lease events the
	// coordinator records for this phase's traffic.
	tr        *trace.Tracer
	traceCtx  trace.SpanCtx
	phaseName string
}

// leaseEvent records one runtime-class protocol event for the phase —
// lease grants, re-issues, completions arriving. Runtime by
// definition: which worker leases which unit when depends entirely on
// scheduling, so these never enter the deterministic view.
func (ph *phaseRun) leaseEvent(name string, seq int, worker, outcome string, wallNS int64) {
	if ph.tr == nil || !ph.traceCtx.Valid() {
		return
	}
	ev := trace.NewEvent(ph.traceCtx.Child(name, seq), name)
	ev.Parent = ph.traceCtx.Span
	ev.Unit = seq
	ev.Phase = ph.phaseName
	ev.Outcome = outcome
	ev.Runtime = true
	ev.WallNS = wallNS
	ev.Attrs = []trace.Attr{{K: "worker", V: worker}}
	ph.tr.Record(ev)
}

// Coordinator owns a study's distribution: it serves the study spec,
// leases units with their phase's spec, and folds completions through a
// scanner.Assembly into the caller's sink. One Coordinator serves one
// study; phases run strictly one at a time (RunPhase blocks until its
// phase drains, exactly like the in-process engine call it replaces).
type Coordinator struct {
	opts  Options
	world *worldgen.World

	mu        sync.Mutex
	nextLease uint64
	phaseSeq  int
	phase     *phaseRun
	studyDone bool
}

// New builds a coordinator for one study.
func New(opts Options) *Coordinator {
	return &Coordinator{opts: opts}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log(format, args...)
	}
}

func (c *Coordinator) count(name string) {
	c.opts.Metrics.RuntimeCounter(name).Add(1)
}

// RunPhase executes one scan phase through the fabric: it builds the
// plan and assembly, publishes the phase to workers, and blocks until
// every unit has been leased, executed, and reassembled — or ctx is
// cancelled. The signature matches the engine seam the pipeline's
// scanStream drives (and composes with runstore resume: cfg.Resume's
// prefix is never leased).
func (c *Coordinator) RunPhase(ctx context.Context, domains []string, countries []geo.CountryCode, tasks []scanner.Task, cfg scanner.Config, sink scanner.Sink) error {
	wire, err := NewConfigWire(cfg)
	if err != nil {
		return err
	}
	if cfg.Trace == nil && c.opts.Trace != nil {
		// The coordinator's tracer backs phases that arrived untraced, so
		// `geoscan -fabric -trace` captures the whole study without
		// the caller threading a tracer through every phase config.
		cfg.Trace = c.opts.Trace
	}
	plan := scanner.NewPlan(domains, countries, tasks, cfg)
	asm, err := scanner.NewAssembly(plan, sink)
	if err != nil {
		return err
	}
	pending := asm.Pending()
	if len(pending) == 0 {
		// Fully resumed (or empty) phase: nothing to distribute, just the
		// engine's end-of-run accounting.
		return asm.Finish()
	}

	c.mu.Lock()
	if c.phase != nil {
		c.mu.Unlock()
		return fmt.Errorf("fabric: phase %q started while phase %d still running", cfg.Phase, c.phase.id)
	}
	if c.studyDone {
		c.mu.Unlock()
		return fmt.Errorf("fabric: phase %q started after FinishStudy", cfg.Phase)
	}
	c.phaseSeq++
	ph := &phaseRun{
		id:        c.phaseSeq,
		plan:      plan,
		asm:       asm,
		order:     pending,
		units:     make(map[int]*unitState, len(pending)),
		remaining: len(pending),
		done:      make(chan struct{}),
	}
	for _, seq := range pending {
		ph.units[seq] = &unitState{}
	}
	ph.tr = cfg.Trace
	ph.traceCtx = scanner.ScanTraceCtx(cfg)
	ph.phaseName = cfg.Phase
	spec := PhaseSpec{
		ID:          ph.id,
		Phase:       cfg.Phase,
		Domains:     domains,
		Countries:   countries,
		Tasks:       tasks,
		Config:      wire,
		Fingerprint: plan.Fingerprint(),
		Units:       plan.NumUnits(),
		Trace:       ph.traceCtx,
	}
	if c.world != nil {
		spec.WorldClock = c.world.Clock()
	}
	ph.specJSON, err = json.Marshal(spec)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.phase = ph
	c.mu.Unlock()
	c.logf("fabric: phase %d (%s): %d units pending (%d resumed)", ph.id, cfg.Phase, len(pending), plan.NumUnits()-len(pending))

	select {
	case <-ph.done:
	case <-ctx.Done():
		c.mu.Lock()
		c.phase = nil
		c.mu.Unlock()
		asm.Abort()
		return ctx.Err()
	}
	c.mu.Lock()
	c.phase = nil
	c.mu.Unlock()
	return ph.err
}

// BindWorld attaches the study's live world, so each phase spec can
// carry the world's policy clock at phase start (the pipeline advances
// it between phases, and workers must observe the same policies).
// geoblock.New calls this when Options.Fabric is set.
func (c *Coordinator) BindWorld(w *worldgen.World) {
	c.mu.Lock()
	c.world = w
	c.mu.Unlock()
}

// FinishStudy tells workers the study is over: subsequent lease
// requests answer StatusStudyDone and workers exit cleanly.
func (c *Coordinator) FinishStudy() {
	c.mu.Lock()
	c.studyDone = true
	c.mu.Unlock()
	c.logf("fabric: study finished")
}

// Handler serves the fabric protocol.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathStudy, c.handleStudy)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathComplete, c.handleComplete)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleStudy(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.opts.Study)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		http.Error(w, "fabric: bad lease request: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, c.lease(req))
}

// lease answers one lease request. The answer is encoded after the lock
// is released: a grant's spec may be large, and its bytes never change.
func (c *Coordinator) lease(req LeaseRequest) LeaseGrant {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph := c.phase
	if ph == nil || ph.remaining == 0 {
		if c.studyDone {
			return LeaseGrant{Status: StatusStudyDone}
		}
		c.count(MetWaits)
		return LeaseGrant{Status: StatusWait, RetryMillis: DefaultRetryMillis}
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	if max > MaxLeaseBatch {
		max = MaxLeaseBatch
	}
	// Pick candidates before touching any lease state. Units never
	// leased come first, in canonical (lowest-seq-first) order, which
	// keeps the reorder frontier short so completed samples stream out
	// instead of piling up in the buffer. Only when the phase has none
	// left does the second pass pick outstanding units (leased, not yet
	// completed), in the same order and never beside a fresh one: a
	// dead, stalled or slow worker's units pass to whichever worker asks
	// next, with no clock to wait out. A phase with units remaining
	// always has one or the other, so every request here gets a grant.
	picks := ph.candidates(false, max)
	reissue := len(picks) == 0
	outcome := "granted"
	if reissue {
		picks = ph.candidates(true, max)
		outcome = "reissued"
	}
	units := make([]UnitLease, 0, len(picks))
	wallNS := ph.tr.Now()
	for _, seq := range picks {
		u := ph.units[seq]
		if reissue {
			c.count(MetReissues)
			c.logf("fabric: phase %d unit %d still outstanding (worker %s); re-leasing to %s", ph.id, seq, u.worker, req.Worker)
		}
		c.nextLease++
		u.leased, u.lease, u.worker = true, c.nextLease, req.Worker
		c.count(MetLeases)
		ph.leaseEvent("lease", seq, req.Worker, outcome, wallNS)
		units = append(units, UnitLease{
			Seq:         seq,
			Lease:       u.lease,
			Fingerprint: ph.plan.Unit(seq).Fingerprint,
			Span:        scanner.UnitTraceCtx(ph.traceCtx, seq).Span,
		})
	}
	grant := LeaseGrant{Status: StatusUnit, Phase: ph.id, Units: units}
	if req.Phase != ph.id {
		// The worker holds another phase's plan, or none yet: the grant
		// carries this phase's spec to build it from.
		grant.Spec = ph.specJSON
	}
	return grant
}

// candidates lists, in canonical order, up to max units of the phase
// not yet completed whose leased flag is leased.
func (ph *phaseRun) candidates(leased bool, max int) []int {
	picks := make([]int, 0, max)
	for _, seq := range ph.order {
		if u := ph.units[seq]; !u.completed && u.leased == leased {
			picks = append(picks, seq)
			if len(picks) == max {
				break
			}
		}
	}
	return picks
}

// handleComplete accepts one executed unit: CRC-framed sample and
// checkpoint records in the body, identity in the query string. The
// unit folds through the Assembly under the coordinator lock, so sink
// delivery (and journaling) stays strictly serialized. The Assembly
// checks the payload against its unit before anything else — before
// the duplicate check too — so no completion that is not its unit's
// output is ever answered 200 as accepted or duplicate.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	reject := func(msg string) {
		c.count(MetRejected)
		http.Error(w, msg, http.StatusBadRequest)
	}
	q := r.URL.Query()
	phaseID, err1 := strconv.Atoi(q.Get("phase"))
	seq, err2 := strconv.Atoi(q.Get("seq"))
	lease, err3 := strconv.ParseUint(q.Get("lease"), 10, 64)
	fp, err4 := strconv.ParseUint(q.Get("fp"), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		reject("fabric: bad complete parameters")
		return
	}
	if r.ContentLength > maxCompletionBytes {
		reject(fmt.Sprintf("fabric: completion of %d bytes exceeds %d", r.ContentLength, maxCompletionBytes))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCompletionBytes))
	if err != nil {
		reject("fabric: reading completion: " + err.Error())
		return
	}
	samples, cp, err := runstore.DecodeShardFrames(body)
	if err != nil {
		reject("fabric: rejecting completion: " + err.Error())
		return
	}
	if cp.Seq != seq {
		reject(fmt.Sprintf("fabric: checkpoint seq %d does not match completion seq %d", cp.Seq, seq))
		return
	}
	res := scanner.UnitResult{Samples: samples, Lost: cp.Lost, Metrics: cp.Metrics}
	if len(cp.Trace) > 0 {
		if err := json.Unmarshal(cp.Trace, &res.Trace); err != nil {
			reject("fabric: bad completion trace: " + err.Error())
			return
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	ph := c.phase
	if ph == nil || ph.id != phaseID {
		writeJSON(w, Ack{OK: false, Status: "stale-phase"})
		return
	}
	u := ph.units[seq]
	if u == nil {
		reject(fmt.Sprintf("fabric: unit %d is not pending in phase %d", seq, phaseID))
		return
	}
	if want := ph.plan.Unit(seq).Fingerprint; want != fp {
		http.Error(w, fmt.Sprintf("fabric: unit %d fingerprint %x does not match plan's %x — worker built a different world", seq, fp, want), http.StatusConflict)
		return
	}
	err = ph.asm.Complete(seq, res)
	if errors.Is(err, scanner.ErrBadCompletion) {
		reject("fabric: " + err.Error())
		return
	}
	wallNS := ph.tr.Now()
	worker := q.Get("worker")
	if u.completed {
		// Deterministic work: a re-leased unit's second completion is
		// byte-identical to the first, so dropping it loses nothing.
		c.count(MetDuplicates)
		ph.leaseEvent("unit.complete", seq, worker, "duplicate", wallNS)
		writeJSON(w, Ack{OK: true, Status: "duplicate"})
		return
	}
	if err != nil {
		http.Error(w, "fabric: "+err.Error(), http.StatusConflict)
		return
	}
	outcome := "ok"
	if !u.leased || u.lease != lease {
		// The unit was re-leased to another worker, but this one finished
		// first. The result is just as valid — first completion wins.
		c.count(MetStale)
		outcome = "stale-lease"
	}
	ph.leaseEvent("unit.complete", seq, worker, outcome, wallNS)
	u.completed = true
	ph.remaining--
	c.count(MetCompletes)
	if ph.remaining == 0 {
		ph.err = ph.asm.Finish()
		close(ph.done)
	}
	writeJSON(w, Ack{OK: true})
}
