// The sink layer: streaming delivery of samples.
package scanner

// Sink receives samples as shards complete. The engine serializes
// calls and delivers in canonical country-major, task-order sequence
// (see the package determinism contract), so implementations need no
// locking and may rely on the order.
//
// A folding sink that digests each sample and drops it (bodies
// included) bounds a scan's peak memory by the in-flight shards
// instead of the full result — the difference between streaming a
// Top-1M pass and materializing millions of retained block pages.
type Sink interface {
	Emit(s Sample)
}

// SinkFunc adapts a plain function to the Sink interface.
type SinkFunc func(Sample)

// Emit calls f(s).
func (f SinkFunc) Emit(s Sample) { f(s) }

// OutageSink is the optional degradation channel: a Sink that also
// implements it receives the per-country Outage records and the final
// Coverage summary after the last sample, still on the engine's single
// delivery goroutine (outages in scan order, coverage last). Sinks
// that don't implement it simply see the ErrNoExits samples.
type OutageSink interface {
	Sink
	EmitOutage(o Outage)
	EmitCoverage(c Coverage)
}

// ShardDone describes one completed scheduler shard at the moment of
// its canonical emission: its sequence number, the country (or VPS
// country) it belongs to, its task and emitted-sample counts, why its
// tasks were lost (OutageNone for a healthy shard), and what its
// session and fetch work counted.
type ShardDone struct {
	Seq     int
	Country string
	Tasks   int
	Samples int
	Lost    OutageReason
	// Metrics is the shard's own contribution to the engine's session
	// and fetch metrics, the one the registry received at this
	// emission: what a resumed run must restore for work it skips.
	Metrics *UnitMetrics
}

// ShardSink is the optional checkpoint channel: a Sink that also
// implements it receives one ShardDone after each shard's samples,
// still on the engine's single delivery goroutine and in canonical
// order. A journaling sink treats the callback as its durable commit
// point — everything before it belongs to fully delivered shards.
type ShardSink interface {
	Sink
	EmitShardDone(d ShardDone)
}

// Collect is the materializing sink: it reproduces the classic
// in-memory sample slice, in canonical order, plus the outage and
// coverage accounting.
type Collect struct {
	Samples  []Sample
	Outages  []Outage
	Coverage Coverage
}

// Emit appends s.
func (c *Collect) Emit(s Sample) { c.Samples = append(c.Samples, s) }

// EmitOutage appends o.
func (c *Collect) EmitOutage(o Outage) { c.Outages = append(c.Outages, o) }

// EmitCoverage records the run's coverage summary.
func (c *Collect) EmitCoverage(cov Coverage) { c.Coverage = cov }
