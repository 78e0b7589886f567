// The scheduler layer: shards and their sticky-session slots, and the
// in-process work-stealing pool that executes a Plan's units.
package scanner

import (
	"context"
	"strconv"
	"sync"

	"geoblock/internal/stats"
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
	slot    uint64 // sticky-session slot, a pure function of (country, phase, index)
	country string // group's country code
	tasks   []Task
	// res is the unit's completion, held by the Assembly from Complete
	// until canonical emission, which keeps only res.Lost for the
	// end-of-scan accounting (a resumed shard's Lost comes from
	// Config.Resume).
	res UnitResult
}

// shardSlot derives a shard's sticky-session slot from (country, phase,
// shard index) — the determinism anchor: a shard lands on the same
// exits no matter which worker runs it, or when.
func shardSlot(country, phase string, index int) uint64 {
	return stats.Hash(country + "/" + phase + "/" + strconv.Itoa(index))
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

// stopped reports, without blocking, whether done, a context's Done
// channel read once per unit, is closed. Unlike the context's Err it
// takes no lock, so workers polling it per task do not contend.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// schedule fans units out over a work-stealing pool of up to
// Config.Concurrency workers and calls run on each, with the unit
// state the worker running it owns. On context cancellation workers
// stop picking up units and schedule returns ctx.Err(); the first
// error run returns stops the pool the same way and is returned
// instead.
func (p *Plan) schedule(ctx context.Context, units []shard, run func(context.Context, *unitState, *shard) error) error {
	if len(units) == 0 {
		return ctx.Err()
	}
	workers := min(p.cfg.Concurrency, len(units))
	// Steal counts and the worker gauge depend on scheduling, so they
	// are runtime-class; everything else here is deterministic.
	reg := p.cfg.Metrics
	reg.RuntimeGauge(MetWorkers).Set(int64(workers))
	steals := reg.RuntimeCounter(MetSteals)

	// Round-robin distribution: unit i starts on worker i%workers, so
	// a giant country's chunks are spread across the pool from the
	// start and stealing only handles residual imbalance.
	deques := make([]*deque, workers)
	for w := range deques {
		deques[w] = &deque{shards: make([]*shard, 0, (len(units)+workers-1)/workers)}
	}
	for i := range units {
		d := deques[i%workers]
		d.shards = append(d.shards, &units[i])
	}

	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := new(unitState)
			for !stopped(done) {
				sh := deques[w].popFront()
				if sh == nil {
					for off := 1; off < workers && sh == nil; off++ {
						sh = deques[(w+off)%workers].stealBack()
					}
					if sh != nil {
						steals.Add(1)
						p.recordSteal(sh.seq, w)
					}
				}
				if sh == nil {
					return // pool drained: the unit set is static
				}
				if err := run(ctx, u, sh); err != nil {
					stop(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// recordSteal records a "steal" event: which unit migrates to which
// worker depends entirely on scheduling — runtime-class by definition.
func (p *Plan) recordSteal(seq, worker int) {
	tr := p.cfg.Trace
	if tr == nil {
		return
	}
	ev := trace.NewEvent(p.scanCtx.Child("steal", seq), "steal")
	ev.Parent = p.scanCtx.Span
	ev.Unit = seq
	ev.Phase = p.cfg.Phase
	ev.Runtime = true
	ev.WallNS = tr.Now()
	ev.Attrs = []trace.Attr{{K: "worker", V: strconv.Itoa(worker)}}
	tr.Record(ev)
}
