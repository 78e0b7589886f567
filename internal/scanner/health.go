// Exit-health tracking: the per-session circuit breaker and the
// decorrelated-jitter backoff that pace session-open retries.
package scanner

import (
	"time"

	"geoblock/internal/stats"
)

// DefaultBreakerSweeps is how many consecutive all-fail connectivity
// sweeps a session tolerates before the circuit breaker concludes the
// country is dark. The threshold only applies while the session has
// never seen a single success: an organically flaky country (exit
// reliability as low as ~0.4) fails a full 5-probe sweep ~8% of the
// time, so a breaker that tripped on streaks alone would silently
// erase countries the paper measures. Once any probe or fetch has
// succeeded the breaker never trips — failures route through the
// bounded retry/rotate path instead.
const DefaultBreakerSweeps = 3

// DefaultOpenRetries bounds session-open attempts against a browned-out
// superproxy before the shard gives the country up.
const DefaultOpenRetries = 3

// health is a session's view of its country's exits: whether anything
// has ever worked, and how many connectivity sweeps have failed in a
// row. It backs the circuit breaker in session.ready.
type health struct {
	everOK       bool
	failedSweeps int
	dead         bool // breaker open: cached dead-country verdict
}

// success records evidence the country is alive and resets the streak.
func (h *health) success() {
	h.everOK = true
	h.failedSweeps = 0
}

// failedSweep records one all-fail connectivity sweep and reports
// whether the breaker just tripped.
func (h *health) failedSweep(threshold int) bool {
	h.failedSweeps++
	if !h.everOK && h.failedSweeps >= threshold {
		h.dead = true
	}
	return h.dead
}

// Decorrelated-jitter backoff parameters (next = min(cap, rand(base,
// prev*3))): spreads retries instead of synchronizing them, without the
// full-cap waits plain exponential backoff converges to.
const (
	backoffBase = 250 * time.Millisecond
	backoffCap  = 8 * time.Second
)

// backoff paces session-open retries. Waits are drawn from a
// deterministic per-shard stream, and time is virtual: the schedule is
// computed and recorded (MetBackoff), but the simulated mesh never
// actually blocks.
type backoff struct {
	rng  *stats.RNG
	prev time.Duration
}

func newBackoff(slot uint64) *backoff {
	return &backoff{
		rng:  stats.NewRNG(stats.Mix64(slot ^ 0xb0ff)).Fork("backoff"),
		prev: backoffBase,
	}
}

// wait draws the next decorrelated-jitter delay.
func (b *backoff) wait() time.Duration {
	lo, hi := float64(backoffBase), float64(b.prev)*3
	d := time.Duration(lo + b.rng.Float64()*(hi-lo))
	if d > backoffCap {
		d = backoffCap
	}
	b.prev = d
	return d
}
