// The scheduler layer: deterministic sharding and a work-stealing
// worker pool with canonical-order emission.
package scanner

import (
	"context"
	"strconv"
	"sync"

	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

// shard is one schedulable unit: a contiguous chunk of one group's
// (country's or VPS's) task list. Shards are fully independent — each
// carries its own session slot — so any execution order yields the
// same per-shard output.
type shard struct {
	seq     int    // canonical position (group-major, chunk order)
	group   int16  // country or VPS index
	index   int    // chunk index within the group
	slot    uint64 // sticky-session slot, a pure function of (group, phase, index)
	tasks   []Task
	out     []Sample     // filled by the runner, released after emission
	lost    OutageReason // set by the runner when the shard's tasks were lost
	country string       // group's country code, for ShardDone
	// staging holds the shard's own metrics when a ShardSink asked for
	// per-shard accounting; merged into the main registry at emission.
	staging *telemetry.Registry
	// events holds the shard's staged trace events when tracing is on;
	// appended to the tracer at emission, same canonical point as the
	// metrics merge.
	events []trace.Event
}

// buildShards chunks each group's tasks. Boundaries depend only on the
// task lists and shardSize — never on Concurrency — so the shard set
// (and through slotFor, every session slot) is stable across any
// worker count.
func buildShards(byGroup [][]Task, shardSize int, slotFor func(group int16, index int) uint64) []*shard {
	var shards []*shard
	for g, tasks := range byGroup {
		for i := 0; len(tasks) > 0; i++ {
			n := shardSize
			if n > len(tasks) {
				n = len(tasks)
			}
			shards = append(shards, &shard{
				seq:   len(shards),
				group: int16(g),
				index: i,
				slot:  slotFor(int16(g), i),
				tasks: tasks[:n],
			})
			tasks = tasks[n:]
		}
	}
	return shards
}

// shardSlot derives a shard's sticky-session slot from (country, phase,
// shard index) — the determinism anchor: a shard lands on the same
// exits no matter which worker runs it, or when.
func shardSlot(country, phase string, index int) uint64 {
	return hash(country + "/" + phase + "/" + strconv.Itoa(index))
}

// deque is one worker's shard queue. The owner pops from the front
// (low canonical sequence first); thieves steal from the back, so a
// skewed country's tail chunks migrate to idle workers.
type deque struct {
	mu     sync.Mutex
	shards []*shard
}

func (d *deque) popFront() *shard {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.shards) == 0 {
		return nil
	}
	sh := d.shards[0]
	d.shards = d.shards[1:]
	return sh
}

func (d *deque) stealBack() *shard {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.shards) == 0 {
		return nil
	}
	sh := d.shards[len(d.shards)-1]
	d.shards = d.shards[:len(d.shards)-1]
	return sh
}

// emitter delivers completed shards to the sink in canonical order: a
// reorder frontier holds out-of-order completions until every earlier
// shard has been emitted. Emit is therefore always called sequentially
// and in the same order regardless of scheduling.
type emitter struct {
	mu        sync.Mutex
	sink      Sink
	shardSink ShardSink // sink's ShardSink side, when it has one
	shards    []*shard
	done      []bool
	next      int
	reg       *telemetry.Registry
	// tr/scanCtx/phase carry the trace wiring: staged unit events are
	// appended (and the per-shard "sink.emit" event recorded) inside
	// the frontier loop, which is what makes the merged stream's order
	// canonical regardless of scheduling or process count.
	tr      *trace.Tracer
	scanCtx trace.SpanCtx
	phase   string
	// ctx, when set, stops delivery at the first shard boundary after
	// it is cancelled. schedule sets it; Assembly leaves it nil, since
	// the fabric cancels through Abort.
	ctx context.Context
}

// newEmitter builds the canonical-order emitter both compositions
// share: schedule (the in-process pool) and Assembly (the fabric's
// reassembly) must stay on this one constructor so their emission-time
// accounting — metrics merge, ShardDone, trace append — is identical.
func newEmitter(sink Sink, shards []*shard, skip int, reg *telemetry.Registry, tr *trace.Tracer, scanCtx trace.SpanCtx, phase string) *emitter {
	done := make([]bool, len(shards))
	for i := 0; i < skip; i++ {
		done[i] = true
	}
	em := &emitter{sink: sink, shards: shards, done: done, next: skip, reg: reg, tr: tr, scanCtx: scanCtx, phase: phase}
	em.shardSink, _ = sink.(ShardSink)
	return em
}

func (e *emitter) complete(sh *shard) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done[sh.seq] = true
	for e.next < len(e.shards) && e.done[e.next] {
		if e.ctx != nil && e.ctx.Err() != nil {
			return
		}
		ready := e.shards[e.next]
		for i := range ready.out {
			e.sink.Emit(ready.out[i])
		}
		if e.reg != nil {
			var bytes int64
			for i := range ready.out {
				bytes += int64(ready.out[i].BodyLen)
			}
			e.reg.Counter(MetSinkSamples).Add(int64(len(ready.out)))
			e.reg.Counter(MetSinkBytes).Add(bytes)
		}
		if ready.staging != nil {
			// Fold the shard's staged metrics into the main registry at
			// the canonical emission point. Merging is commutative, so
			// the totals equal a run that recorded them live.
			e.reg.Merge(ready.staging.Snapshot())
		}
		if e.shardSink != nil {
			var det *telemetry.Snapshot
			if ready.staging != nil {
				det = ready.staging.Snapshot().Deterministic()
			}
			e.shardSink.EmitShardDone(ShardDone{
				Seq:     ready.seq,
				Country: ready.country,
				Tasks:   len(ready.tasks),
				Samples: len(ready.out),
				Lost:    ready.lost,
				Metrics: det,
			})
		}
		if e.tr != nil {
			// Same canonical point as the metrics merge: unit events land
			// in frontier order, then the emission itself is recorded.
			e.tr.Append(ready.events)
			virt, wall := e.tr.Now()
			ev := trace.NewEvent(e.scanCtx.Child("sink.emit", ready.seq), "sink.emit")
			ev.Parent = e.scanCtx.Span
			ev.Unit = ready.seq
			ev.Country = ready.country
			ev.Phase = e.phase
			if ready.lost == OutageNone {
				ev.Outcome = "ok"
			} else {
				ev.Outcome = ready.lost.String()
			}
			ev.VirtNS = virt
			ev.WallNS = wall
			ev.Attrs = []trace.Attr{{K: "samples", V: strconv.Itoa(len(ready.out))}}
			e.tr.Record(ev)
		}
		ready.out = nil // release bodies as soon as the sink has seen them
		ready.staging = nil
		ready.events = nil
		e.next++
	}
}

// schedule fans shards out over a work-stealing pool and streams
// completed shards through em in canonical order. run must fill
// sh.out. The first skip shards are a resumed prefix: already
// persisted by an earlier run, they are never distributed — the
// emitter's frontier starts past them. On context cancellation workers
// stop picking up shards, delivery stops at the next shard boundary,
// and schedule returns ctx.Err(); already-emitted samples are not
// retracted.
func schedule(ctx context.Context, shards []*shard, skip int, workers int, run func(context.Context, *shard), em *emitter) error {
	if len(shards) == 0 {
		return ctx.Err()
	}
	em.ctx = ctx
	reg := em.reg
	reg.Counter(MetShardsScheduled).Add(int64(len(shards)))
	live := shards[skip:]
	if len(live) == 0 {
		return ctx.Err()
	}
	if workers > len(live) {
		workers = len(live)
	}
	if workers < 1 {
		workers = 1
	}
	// Steal counts and the worker gauge depend on scheduling, so they
	// are runtime-class; everything else here is deterministic.
	reg.RuntimeGauge(MetWorkers).Set(int64(workers))
	steals := reg.RuntimeCounter(MetSteals)
	shardsDone := reg.Counter(MetShardsDone)

	// Round-robin distribution: shard i starts on worker i%workers, so
	// a giant country's chunks are spread across the pool from the
	// start and stealing only handles residual imbalance.
	deques := make([]*deque, workers)
	for w := range deques {
		deques[w] = &deque{}
	}
	for i, sh := range live {
		d := deques[i%workers]
		d.shards = append(d.shards, sh)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				sh := deques[w].popFront()
				if sh == nil {
					for off := 1; off < workers && sh == nil; off++ {
						sh = deques[(w+off)%workers].stealBack()
					}
					if sh != nil {
						steals.Add(1)
						if em.tr != nil {
							// Which shard migrates depends entirely on
							// scheduling — runtime-class by definition.
							ev := trace.NewEvent(em.scanCtx.Child("steal", sh.seq), "steal")
							ev.Parent = em.scanCtx.Span
							ev.Unit = sh.seq
							ev.Phase = em.phase
							ev.Runtime = true
							_, ev.WallNS = em.tr.Now()
							ev.Attrs = []trace.Attr{{K: "worker", V: strconv.Itoa(w)}}
							em.tr.Record(ev)
						}
					}
				}
				if sh == nil {
					return // pool drained: the shard set is static
				}
				run(ctx, sh)
				shardsDone.Add(1)
				em.complete(sh)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
