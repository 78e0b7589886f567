// The scheduler layer: shards and their sticky-session slots, and the
// one worker pool every parallel loop in the program runs on.
package scanner

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"geoblock/internal/stats"
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

// Each calls fn(w, i) once for every i in [0, n) on up to workers
// goroutines, at least one when n > 0, and returns when every call has.
// Each worker takes the lowest index no worker has taken yet from one
// shared cursor, so indices start in ascending order at any worker
// count: a large item near the front starts first, and a scan's units
// finish near the reorder frontier. w, the worker's number, is below
// min(workers, n) and indexes the caller's per-worker state; the
// calling goroutine is worker 0. Callers that need output in index
// order write it into per-index slots.
func Each(n, workers int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = max(1, min(workers, n))
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
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

// schedule runs units on Each with up to Config.Concurrency workers,
// calling run on each with the unit state the worker running it owns.
// On context cancellation workers stop starting units and schedule
// returns ctx.Err(); the first error run returns stops the pool the
// same way and is returned instead.
func (p *Plan) schedule(ctx context.Context, units []shard, run func(context.Context, *unitState, *shard) error) error {
	if len(units) == 0 {
		return ctx.Err()
	}
	workers := min(p.cfg.Concurrency, len(units))
	// The worker gauge depends on the machine, so it is runtime-class.
	p.cfg.Metrics.RuntimeGauge(MetWorkers).Set(int64(workers))

	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	done := ctx.Done()
	states := make([]unitState, workers)
	Each(len(units), workers, func(w, i int) {
		if stopped(done) {
			return
		}
		if err := run(ctx, &states[w], &units[i]); err != nil {
			stop(err)
		}
	})
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}
