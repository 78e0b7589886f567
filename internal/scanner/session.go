// The session layer: sticky proxy-session acquisition, the
// connectivity pre-check loop, per-exit budget rotation, and the
// circuit breaker that keeps a dark country from eating the retry
// budget of every sample in a shard.
package scanner

import (
	"errors"
	"time"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/telemetry"
)

// DefaultVerifyProbes bounds the connectivity pre-check loop on a
// fresh exit, so a fully dark inventory degrades into plain failures
// rather than spinning.
const DefaultVerifyProbes = 5

// RetryPolicy is the session layer's contract, extracted from the old
// fetchWithRetries: how many times a failed sample is retried, when
// the exit budget forces rotation, and how hard to probe for a live
// exit before giving up on the pre-check.
type RetryPolicy struct {
	// Retries per failed sample (attempts = 1 + Retries).
	Retries int
	// RequestsPerExit bounds per-exit load before rotation (paper: 10).
	RequestsPerExit int
	// VerifyProbes bounds the pre-check loop on a fresh exit.
	VerifyProbes int
	// VerifyConnectivity enables the platform echo check.
	VerifyConnectivity bool
	// BreakerSweeps is the circuit-breaker threshold: how many
	// consecutive all-fail connectivity sweeps (with no success ever)
	// mark the country dead for the shard. Zero takes
	// DefaultBreakerSweeps.
	BreakerSweeps int
	// OpenRetries bounds session-open attempts against a browned-out
	// superproxy. Zero takes DefaultOpenRetries.
	OpenRetries int
	// Sleep, when non-nil, receives each backoff wait. Nil keeps time
	// virtual: the backoff schedule is computed but nothing blocks.
	Sleep func(time.Duration)
}

func (pol RetryPolicy) withDefaults() RetryPolicy {
	if pol.VerifyProbes <= 0 {
		pol.VerifyProbes = DefaultVerifyProbes
	}
	if pol.BreakerSweeps <= 0 {
		pol.BreakerSweeps = DefaultBreakerSweeps
	}
	if pol.OpenRetries <= 0 {
		pol.OpenRetries = DefaultOpenRetries
	}
	return pol
}

// session wraps a sticky proxy.Session with the policy-driven
// housekeeping every attempt needs. Like proxy.Session it is owned by
// a single shard and is not safe for concurrent use.
type session struct {
	s   *proxy.Session
	pol RetryPolicy
	h   health
	reg *telemetry.Registry
}

// openSession acquires a sticky session for cc starting at the
// deterministic slot. Superproxy brownouts are retried under
// decorrelated-jitter backoff (they clear); every other failure —
// ErrNoExits above all — is final. reg (nil-safe) tallies attempts,
// brownouts, and the computed backoff waits.
func openSession(net *proxy.Network, cc geo.CountryCode, slot uint64, pol RetryPolicy, reg *telemetry.Registry) (*session, error) {
	pol = pol.withDefaults()
	bo := newBackoff(slot, pol.Sleep)
	var lastErr error
	for attempt := 0; attempt <= pol.OpenRetries; attempt++ {
		reg.Counter(MetOpenAttempts).Add(1)
		s, err := net.NewSessionAttempt(cc, slot, attempt)
		if err == nil {
			return &session{s: s, pol: pol, reg: reg}, nil
		}
		lastErr = err
		var brown *proxy.ErrBrownout
		if !errors.As(err, &brown) {
			return nil, err
		}
		reg.Counter(MetBrownouts).Add(1)
		if attempt < pol.OpenRetries {
			d := bo.wait()
			// The schedule is a pure function of the slot, so the
			// histogram is deterministic-class even though it records
			// durations.
			reg.Histogram(MetBackoff, 0, float64(backoffCap/time.Millisecond), 16).
				Observe(float64(d) / float64(time.Millisecond))
		}
	}
	return nil, lastErr
}

// ready prepares the current exit for one attempt: rotates when the
// per-exit budget is spent, then runs the connectivity pre-check on
// whatever fresh exit the session lands on. It reports false once the
// circuit breaker has concluded the country is dark — the verdict is
// cached for the shard, so a dead country costs BreakerSweeps sweeps
// total instead of a full probe loop per attempt.
func (se *session) ready(seed uint64) bool {
	if se.h.dead {
		return false
	}
	if se.s.Used() >= se.pol.RequestsPerExit {
		se.s.Rotate()
		se.reg.Counter(MetRotations).Add(1)
	}
	if se.pol.VerifyConnectivity && se.s.Used() == 0 {
		probes := se.pol.VerifyProbes
		if n := se.s.InventorySize(); n < probes {
			probes = n // extra probes would only revisit exits already seen
		}
		found := false
		for probe := 0; probe < probes; probe++ {
			se.reg.Counter(MetProbes).Add(1)
			if _, _, err := se.s.Verify(seed + uint64(probe)); err == nil {
				found = true
				break
			}
			se.s.Rotate()
		}
		if found {
			se.h.success()
		} else {
			se.reg.Counter(MetFailedSweeps).Add(1)
			if se.h.failedSweep(se.pol.BreakerSweeps) {
				if se.h.dead {
					se.reg.Counter(MetBreakerTrips).Add(1)
				}
				return false
			}
		}
	}
	return true
}

// rotate abandons the current exit (after a failed attempt).
func (se *session) rotate() {
	se.s.Rotate()
	se.reg.Counter(MetRotations).Add(1)
}

// dark reports whether the circuit breaker wrote the country off.
func (se *session) dark() bool { return se.h.dead }

// exitIP is the address of the exit the next attempt will use.
func (se *session) exitIP() geo.IP { return se.s.Exit().IP }

// transport exposes the raw session for the fetcher to probe through.
func (se *session) transport() *proxy.Session { return se.s }

// fetchReliable performs one logical sample under the policy: up to
// 1+Retries attempts, rotating the exit between attempts and whenever
// the per-exit budget is spent. Luminati refusals are terminal — the
// platform's answer will not change with another exit. A tripped
// circuit breaker short-circuits the whole sample to ErrNoExits.
func fetchReliable(f *fetcher, se *session, domain string, seed uint64, t Task, attempt uint8) Sample {
	var last Sample
	for try := 0; try <= se.pol.Retries; try++ {
		if try > 0 {
			se.reg.Counter(MetRetries).Add(1)
		}
		if !se.ready(seed) {
			return Sample{Domain: t.Domain, Country: t.Country, Attempt: attempt, Err: ErrNoExits}
		}
		trySeed := seed + uint64(try)*0x9e3779b97f4a7c15
		last = f.fetch(domain, trySeed, t, attempt, se.exitIP())
		if last.Err == ErrNone || last.Err == ErrLuminati {
			se.h.success()
			return last
		}
		se.rotate()
	}
	return last
}
