// Package telemetry is the engine's dependency-free metrics layer: a
// Registry of counters, gauges, and histograms threaded through every
// scanner layer, the fault injector, and the pipeline phases. Per-phase
// and per-unit timing and outcomes live in the wide-event trace
// (internal/trace), not here.
//
// Two metric classes coexist. Deterministic metrics are pure functions
// of the scan inputs — retry tallies, ErrCode counts, injected-fault
// counters, backoff schedules, shard and sample totals — and under the
// engine's determinism contract they are identical at any Concurrency.
// Runtime metrics (work-steal counts, worker gauges, wall-clock
// latencies) describe one particular execution and legitimately vary
// from run to run; they are registered through the Runtime*
// constructors and stripped by Snapshot.Deterministic, the view the
// chaos matrix compares byte for byte.
//
// Time is injected: a Registry built with New uses a Virtual clock
// (every duration is zero, every snapshot reproducible), and the CLI
// surfaces inject Wall for real timings. The wall clock itself is
// confined to clock.go — geolint's determinism analyzer enforces the
// seam.
//
// Every method is nil-receiver safe, so instrumentation sites read as
// plain straight-line code — reg.Counter(name).Add(1) — and a nil
// *Registry turns the whole layer into a no-op.
package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geoblock/internal/stats"
)

// Registry holds a process's metrics. The zero value is not usable;
// build one with New or NewWithClock. A nil *Registry is a valid no-op
// receiver for every method.
type Registry struct {
	// clock is set at construction and never reassigned: it sits above
	// mu, outside the guarded set, because Now reads it without the
	// registry lock.
	clock Clock

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns a registry on a Virtual clock pinned at the epoch: all
// durations record as zero, so snapshots are a pure function of the
// recorded events — the right default for tests and deterministic runs.
func New() *Registry { return NewWithClock(nil) }

// NewWithClock returns a registry reading time from c. A nil clock
// falls back to a fresh Virtual clock.
func NewWithClock(c Clock) *Registry {
	if c == nil {
		c = NewVirtual()
	}
	return &Registry{
		clock:    c,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Now reads the registry's clock. A nil registry returns the zero time.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.clock.Now()
}

// Counter returns the named deterministic-class counter, creating it on
// first use. The class is fixed at creation; later lookups keep it.
func (r *Registry) Counter(name string) *Counter { return r.counter(name, false) }

// RuntimeCounter returns the named runtime-class counter: one whose
// value depends on scheduling (work steals, for example) and is
// excluded from the deterministic snapshot view.
func (r *Registry) RuntimeCounter(name string) *Counter { return r.counter(name, true) }

func (r *Registry) counter(name string, runtime bool) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{runtime: runtime}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named deterministic-class gauge.
func (r *Registry) Gauge(name string) *Gauge { return r.gauge(name, false) }

// RuntimeGauge returns the named runtime-class gauge.
func (r *Registry) RuntimeGauge(name string) *Gauge { return r.gauge(name, true) }

func (r *Registry) gauge(name string, runtime bool) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{runtime: runtime}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named deterministic-class histogram with bins
// fixed-width buckets over [min, max) (reusing internal/stats). The
// parameters apply on first registration; later lookups return the
// existing histogram unchanged.
func (r *Registry) Histogram(name string, min, max float64, bins int) *Histogram {
	return r.histogram(name, min, max, bins, false)
}

// RuntimeHistogram is Histogram for runtime-class observations (wall
// latencies above all), excluded from the deterministic view.
func (r *Registry) RuntimeHistogram(name string, min, max float64, bins int) *Histogram {
	return r.histogram(name, min, max, bins, true)
}

func (r *Registry) histogram(name string, min, max float64, bins int, runtime bool) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{h: stats.NewHistogram(min, max, bins), runtime: runtime}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing metric. Safe for concurrent
// use; a nil *Counter no-ops.
type Counter struct {
	v       atomic.Int64
	runtime bool
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter. A nil counter reads zero.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time metric. Safe for concurrent use; a nil
// *Gauge no-ops.
type Gauge struct {
	v       atomic.Int64
	runtime bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by n (for in-flight style gauges).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the gauge. A nil gauge reads zero.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed-width buckets, wrapping
// stats.Histogram with a mutex and an integer sum. The sum truncates
// each observation toward zero before accumulating so that concurrent
// accumulation order cannot perturb it — a float sum's low bits would
// depend on addition order and break byte-identical snapshots.
type Histogram struct {
	mu      sync.Mutex
	h       *stats.Histogram
	sum     int64
	runtime bool
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(v)
	h.sum += int64(v)
	h.mu.Unlock()
}

// AddBatch folds in a batch of observations binned elsewhere on this
// histogram's geometry (by stats.Histogram.Add): counts adds bin-wise,
// outOfRange joins the out-of-range tally, and sum the truncated sum,
// all under one lock. It is Observe in bulk, for a caller that bins
// its own observations and adds them once. A batch with another bin
// count lands out of range whole.
func (h *Histogram) AddBatch(counts []int, outOfRange int, sum int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += sum
	if len(counts) != len(h.h.Counts) {
		for _, c := range counts {
			outOfRange += c
		}
		counts = nil
	}
	h.h.MergeCounts(counts, outOfRange)
}

// Label decorates a metric name with key=value label pairs:
//
//	Label("scanner.fetch.results", "code", "timeout")
//	// -> "scanner.fetch.results{code=timeout}"
//
// Labels are part of the name, so each combination is its own metric;
// keep cardinalities small (ErrCodes, outage reasons, fault kinds —
// never domains).
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}
