// Metric names for the scan engine's telemetry, one constant per
// series so instrumentation sites and tests never drift on spelling.
// The split between deterministic and runtime classes follows the
// package determinism contract: a deterministic metric is a pure
// function of the scan inputs (identical at any Concurrency); a
// runtime metric describes one particular schedule and is registered
// through the Runtime* constructors so Snapshot.Deterministic strips
// it.
package scanner

import (
	"fmt"
	"time"

	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
)

const (
	// Scheduler layer.
	MetShardsScheduled = "scanner.sched.shards_scheduled"
	MetShardsDone      = "scanner.sched.shards_done"
	MetSteals          = "scanner.sched.steals"  // runtime: depends on worker timing
	MetWorkers         = "scanner.sched.workers" // runtime gauge

	// Sink layer (counted at canonical-order delivery).
	MetSinkSamples = "scanner.sink.samples"
	MetSinkBytes   = "scanner.sink.body_bytes"

	// Fetcher layer.
	MetFetchAttempts = "scanner.fetch.attempts"
	MetFetchResults  = "scanner.fetch.results"    // + {code=<ErrCode>}
	MetFetchLatency  = "scanner.fetch.latency_ms" // runtime histogram
	MetFetchBytes    = "scanner.fetch.body_bytes"

	// Session layer.
	MetOpenAttempts = "scanner.session.open_attempts"
	MetBrownouts    = "scanner.session.brownouts"
	MetBackoff      = "scanner.session.backoff_ms"
	MetRetries      = "scanner.session.retries"
	MetRotations    = "scanner.session.rotations"
	MetProbes       = "scanner.session.precheck_probes"
	MetFailedSweeps = "scanner.session.failed_sweeps"
	MetBreakerTrips = "scanner.session.breaker_trips"

	// Outage accounting.
	MetOutages      = "scanner.outages" // + {reason=<OutageReason>}
	MetOutagesTotal = "scanner.outages_total"
	MetCovRequested = "scanner.coverage.requested"
	MetCovAttained  = "scanner.coverage.attained"
	MetCovTasksLost = "scanner.coverage.tasks_lost"
)

// Histogram geometry of the tally's three histograms.
const (
	latencyMaxMs = 2000
	latencyBins  = 20
	bytesMax     = 65536
	bytesBins    = 16
	backoffMaxMs = float64(backoffCap / time.Millisecond)
	backoffBins  = 16
)

// tally is one unit's session and fetch metrics in plain fields. The
// unit's goroutine is its only writer, so a sample takes no lock, no
// shared atomic and no name lookup; Plan.execute flushes the tally into
// the registry once, when the unit ends.
type tally struct {
	// clock is the target registry's clock: two reads per attempt feed
	// the latency histogram. Nil when the scan has no registry, and then
	// the fetcher records nothing.
	clock telemetry.Clock
	// fetcher is set once the unit built a fetcher, whose series
	// register at flush even when they stayed zero.
	fetcher bool

	attempts                int64
	results                 [errCodeCount]int64
	latency, bytes, backoff batch

	openAttempts, brownouts, retries, rotations, probes, failedSweeps, breakerTrips int64

	latencyBins [latencyBins]int
	bytesBins   [bytesBins]int
	backoffBins [backoffBins]int
}

// batch bins one histogram's observations with the registry's rule
// (stats.Histogram.Add) and keeps the registry's truncated sum.
type batch struct {
	h   stats.Histogram
	sum int64
}

func (b *batch) observe(v float64) {
	b.h.Add(v)
	b.sum += int64(v)
}

// addTo adds the batch to h in one call.
func (b *batch) addTo(h *telemetry.Histogram) {
	in := 0
	for _, c := range b.h.Counts {
		in += c
	}
	h.AddBatch(b.h.Counts, b.h.Total()-in, b.sum)
}

// newTally returns an empty tally reading time from clock. Its bins
// are arrays inside it, so recording allocates nothing beyond the
// tally itself.
func newTally(clock telemetry.Clock) *tally {
	t := &tally{clock: clock}
	t.latency.h = stats.Histogram{Max: latencyMaxMs, Counts: t.latencyBins[:]}
	t.bytes.h = stats.Histogram{Max: bytesMax, Counts: t.bytesBins[:]}
	t.backoff.h = stats.Histogram{Max: backoffMaxMs, Counts: t.backoffBins[:]}
	return t
}

// fetched records one completed fetch attempt.
func (t *tally) fetched(s *Sample, d time.Duration) {
	t.attempts++
	if int(s.Err) < len(t.results) {
		t.results[s.Err]++
	}
	t.latency.observe(float64(d) / float64(time.Millisecond))
	if s.Err == ErrNone {
		t.bytes.observe(float64(s.BodyLen))
	}
}

// flush adds the tally to reg. It registers exactly what recording
// each event live registers: a fetcher's series even at zero, and a
// session series only once it moved.
func (t *tally) flush(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	if t.fetcher {
		reg.Counter(MetFetchAttempts).Add(t.attempts)
		for e, n := range t.results {
			reg.Counter(telemetry.Label(MetFetchResults, "code", ErrCode(e).String())).Add(n)
		}
		// Latency is wall-schedule dependent; body size is not.
		t.latency.addTo(reg.RuntimeHistogram(MetFetchLatency, 0, latencyMaxMs, latencyBins))
		t.bytes.addTo(reg.Histogram(MetFetchBytes, 0, bytesMax, bytesBins))
	}
	addMoved(reg, MetOpenAttempts, t.openAttempts)
	addMoved(reg, MetBrownouts, t.brownouts)
	addMoved(reg, MetRetries, t.retries)
	addMoved(reg, MetRotations, t.rotations)
	addMoved(reg, MetProbes, t.probes)
	addMoved(reg, MetFailedSweeps, t.failedSweeps)
	addMoved(reg, MetBreakerTrips, t.breakerTrips)
	if t.backoff.h.Total() > 0 {
		// The schedule is a pure function of the slot, so the histogram
		// is deterministic-class even though it records durations.
		t.backoff.addTo(reg.Histogram(MetBackoff, 0, backoffMaxMs, backoffBins))
	}
}

// addMoved adds n to the named counter when n moved it.
func addMoved(reg *telemetry.Registry, name string, n int64) {
	if n > 0 {
		reg.Counter(name).Add(n)
	}
}

// ProgressLine renders the one-line scan progress summary the CLIs
// print to stderr: shard progress, outages, and retry pressure.
func ProgressLine(reg *telemetry.Registry) string {
	done := reg.Counter(MetShardsDone).Value()
	total := reg.Counter(MetShardsScheduled).Value()
	outages := reg.Counter(MetOutagesTotal).Value()
	attempts := reg.Counter(MetFetchAttempts).Value()
	retries := reg.Counter(MetRetries).Value()
	rate := 0.0
	if attempts > 0 {
		rate = 100 * float64(retries) / float64(attempts)
	}
	return fmt.Sprintf("scan: shards %d/%d · outages %d · retry rate %.1f%% (%d attempts) · samples %d",
		done, total, outages, rate, attempts, reg.Counter(MetSinkSamples).Value())
}
