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
	"math"
	"time"

	"geoblock/internal/proxy"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
)

const (
	// Scheduler layer.
	MetShardsScheduled = "scanner.sched.shards_scheduled"
	MetShardsDone      = "scanner.sched.shards_done"
	MetWorkers         = "scanner.sched.workers" // runtime gauge
	// MetSteals names a series nothing counts: the pool takes units
	// from one shared cursor and steals none. It stays declared only
	// because perfbench reads it.
	MetSteals = "scanner.sched.steals"

	// Sink layer (counted at canonical-order delivery).
	MetSinkSamples = "scanner.sink.samples"
	MetSinkBytes   = "scanner.sink.body_bytes"

	// Fetcher layer.
	MetFetchAttempts = "scanner.fetch.attempts"
	MetFetchResults  = "scanner.fetch.results" // + {code=<ErrCode>}
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

	// Fault injection: the fault hook's verdicts the scan's units met.
	MetInjected = "faults.injected" // + {kind=<kind>,country=<the unit's>}
)

// The fetch result counters, one per ErrCode: each is
// telemetry.Label(MetFetchResults, "code", code.String()), spelled out
// so that adding a unit's metrics builds no name.
const (
	metResultsOK        = MetFetchResults + "{code=ok}"
	metResultsProxy     = MetFetchResults + "{code=proxy}"
	metResultsTimeout   = MetFetchResults + "{code=timeout}"
	metResultsDNS       = MetFetchResults + "{code=dns}"
	metResultsReset     = MetFetchResults + "{code=reset}"
	metResultsRedirects = MetFetchResults + "{code=redirects}"
	metResultsLuminati  = MetFetchResults + "{code=luminati}"
	metResultsNoExits   = MetFetchResults + "{code=no-exits}"
)

// Histogram geometry: the two deterministic histograms a unit carries
// (UnitHistogram).
const (
	bytesMax     = 65536
	backoffMaxMs = float64(backoffCap / time.Millisecond)
	unitBins     = 16
)

// UnitMetrics is the one form a unit's session, fetch and fault
// metrics take: the executing unit counts into it, its UnitResult and
// ShardDone point at it, journal checkpoints and fabric completions
// carry it, and AddTo adds it to a registry at the unit's emission or
// replay. Every field is deterministic and never negative.
type UnitMetrics struct {
	// Fetcher is set once the unit built a fetcher, whose series
	// register even when they stayed zero.
	Fetcher  bool
	Attempts int64
	Results  [errCodeCount]int64 // attempts by ErrCode

	OpenAttempts, Brownouts, Retries, Rotations, Probes, FailedSweeps, BreakerTrips int64

	// Bytes holds the body sizes of ErrNone attempts; Backoff the
	// computed brownout waits, in milliseconds.
	Bytes, Backoff UnitHistogram

	// Faults is the injected faults the unit's session acted on, copied
	// from it when the unit ends. The injected brownouts are Brownouts.
	Faults proxy.FaultCounts
}

// UnitHistogram is a unit's share of a deterministic registry
// histogram: 16 fixed-width bins from zero, binned by stats.Bin, the
// observations outside them, and the sum of the observations truncated
// toward zero, as the registry sums them.
type UnitHistogram struct {
	Counts     [unitBins]int64
	OutOfRange int64
	Sum        int64
}

func (h *UnitHistogram) observe(v, max float64) {
	if i := stats.Bin(v, 0, max, unitBins); i >= 0 {
		h.Counts[i]++
	} else {
		h.OutOfRange++
	}
	h.Sum += int64(v)
}

// addTo adds h to the registry histogram th in one batch.
func (h *UnitHistogram) addTo(th *telemetry.Histogram) {
	var counts [unitBins]int
	for i, c := range h.Counts {
		counts[i] = int(c)
	}
	th.AddBatch(counts[:], int(h.OutOfRange), h.Sum)
}

// AddTo adds m, the metrics of a unit in country, to reg. It registers
// exactly what recording each event live registers: a fetcher's series
// even at zero, and a session or fault series only once it moved. A nil
// m or reg adds nothing.
func (m *UnitMetrics) AddTo(reg *telemetry.Registry, country string) {
	if m == nil || reg == nil {
		return
	}
	if m.Fetcher {
		reg.Counter(MetFetchAttempts).Add(m.Attempts)
		reg.Counter(metResultsOK).Add(m.Results[ErrNone])
		reg.Counter(metResultsProxy).Add(m.Results[ErrProxy])
		reg.Counter(metResultsTimeout).Add(m.Results[ErrTimeout])
		reg.Counter(metResultsDNS).Add(m.Results[ErrDNS])
		reg.Counter(metResultsReset).Add(m.Results[ErrReset])
		reg.Counter(metResultsRedirects).Add(m.Results[ErrRedirects])
		reg.Counter(metResultsLuminati).Add(m.Results[ErrLuminati])
		reg.Counter(metResultsNoExits).Add(m.Results[ErrNoExits])
		m.Bytes.addTo(reg.Histogram(MetFetchBytes, 0, bytesMax, unitBins))
	}
	addMoved(reg, MetOpenAttempts, m.OpenAttempts)
	addMoved(reg, MetBrownouts, m.Brownouts)
	addMoved(reg, MetRetries, m.Retries)
	addMoved(reg, MetRotations, m.Rotations)
	addMoved(reg, MetProbes, m.Probes)
	addMoved(reg, MetFailedSweeps, m.FailedSweeps)
	addMoved(reg, MetBreakerTrips, m.BreakerTrips)
	if m.Backoff != (UnitHistogram{}) {
		// The schedule is a pure function of the slot, so the histogram
		// is deterministic-class even though it records durations.
		m.Backoff.addTo(reg.Histogram(MetBackoff, 0, backoffMaxMs, unitBins))
	}
	fired := [...]int64{m.Brownouts, m.Faults.Dark, m.Faults.Churn, m.Faults.ExitDown, m.Faults.Stall, m.Faults.Truncate}
	for i, kind := range [...]string{"brownout", "dark", "churn", "exitdown", "stall", "truncate"} {
		if fired[i] > 0 {
			reg.Counter(telemetry.Label(MetInjected, "kind", kind, "country", country)).Add(fired[i])
		}
	}
}

// check reports a UnitMetrics no execution of a unit allowed at most
// maxAttempts fetch attempts produces: one whose results do not sum to
// its attempts, whose body-size histogram does not hold exactly its
// ErrNone results, with more attempts than allowed, with attempts but
// no fetcher, or with more injected faults than one per hop its
// attempts may send and one dark exit per pre-check probe. The sums are
// bounded term by term, so no decoded value can overflow them into
// agreement.
func (m *UnitMetrics) check(maxAttempts int64) error {
	hops := m.Attempts * MaxRedirects
	switch {
	case m.Attempts < 0 || m.Attempts > maxAttempts:
		return fmt.Errorf("%d attempts, at most %d allowed", m.Attempts, maxAttempts)
	case !m.Fetcher && m.Attempts != 0:
		return fmt.Errorf("%d attempts without a fetcher", m.Attempts)
	case sumTo(m.Attempts, m.Results[:]...) != m.Attempts:
		return fmt.Errorf("results do not sum to its %d attempts", m.Attempts)
	case sumTo(m.Results[ErrNone], m.Bytes.OutOfRange, sumTo(m.Results[ErrNone], m.Bytes.Counts[:]...)) != m.Results[ErrNone]:
		return fmt.Errorf("body-size histogram does not hold its %d ok results", m.Results[ErrNone])
	case sumTo(hops+min(m.Probes, math.MaxInt64-hops), m.Faults.Dark, m.Faults.Churn, m.Faults.ExitDown, m.Faults.Stall, m.Faults.Truncate) < 0:
		return fmt.Errorf("injected faults %+v pass one per hop of %d attempts and one per %d pre-check probes", m.Faults, m.Attempts, m.Probes)
	}
	return nil
}

// sumTo adds vs, stopping with -1 as soon as one is negative or the
// running sum would pass limit.
func sumTo(limit int64, vs ...int64) int64 {
	var s int64
	for _, v := range vs {
		if v < 0 || v > limit-s {
			return -1
		}
		s += v
	}
	return s
}

// fetched counts one completed fetch attempt. The executing unit's
// goroutine is its metrics' only writer, so an attempt takes no lock,
// no shared atomic, no name lookup and no clock read.
func (m *UnitMetrics) fetched(s *Sample) {
	m.Attempts++
	if int(s.Err) < len(m.Results) {
		m.Results[s.Err]++
	}
	if s.Err == ErrNone {
		m.Bytes.observe(float64(s.BodyLen), bytesMax)
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
