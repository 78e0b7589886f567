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
)

// DefaultVerifyProbes bounds the connectivity pre-check loop on a
// fresh exit, so a fully dark inventory degrades into plain failures
// rather than spinning.
const DefaultVerifyProbes = 5

// session wraps a sticky proxy.Session, which it holds and opens in
// place, with the housekeeping every attempt needs, under Config's
// retry knobs. Like proxy.Session it is owned by a single shard at a
// time and is not safe for concurrent use.
type session struct {
	s       proxy.Session
	retries int // Config.Retries: attempts per sample = 1 + retries
	h       health
	m       *UnitMetrics
}

// open acquires se's sticky session for cc starting at the
// deterministic slot, resetting all of se. Superproxy brownouts are
// retried up to DefaultOpenRetries times under decorrelated-jitter
// backoff (they clear); every other failure — ErrNoExits above all —
// is final. m counts attempts, brownouts, and the computed backoff
// waits, and the session keeps counting into it.
func (se *session) open(net *proxy.Network, cc geo.CountryCode, slot uint64, retries int, m *UnitMetrics) error {
	*se = session{retries: retries, m: m}
	var bo *backoff // built at the first brownout: most units never wait
	var lastErr error
	for attempt := 0; attempt <= DefaultOpenRetries; attempt++ {
		m.OpenAttempts++
		err := net.OpenSession(&se.s, cc, slot, attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		var brown *proxy.ErrBrownout
		if !errors.As(err, &brown) {
			return err
		}
		m.Brownouts++
		if attempt < DefaultOpenRetries {
			if bo == nil {
				bo = newBackoff(slot)
			}
			m.Backoff.observe(float64(bo.wait())/float64(time.Millisecond), backoffMaxMs)
		}
	}
	return lastErr
}

// ready prepares the current exit for one attempt: rotates when the
// per-exit budget is spent, then runs the connectivity pre-check on
// whatever fresh exit the session lands on. It reports false once the
// circuit breaker has concluded the country is dark — the verdict is
// cached for the shard, so a dead country costs DefaultBreakerSweeps
// sweeps total instead of a full probe loop per attempt.
func (se *session) ready(seed uint64) bool {
	if se.h.dead {
		return false
	}
	if se.s.Used() >= RequestsPerExit {
		se.s.Rotate()
		se.m.Rotations++
	}
	if se.s.Used() == 0 {
		probes := DefaultVerifyProbes
		if n := se.s.InventorySize(); n < probes {
			probes = n // extra probes would only revisit exits already seen
		}
		found := false
		for probe := 0; probe < probes; probe++ {
			se.m.Probes++
			if _, _, err := se.s.Verify(seed + uint64(probe)); err == nil {
				found = true
				break
			}
			se.s.Rotate()
		}
		if found {
			se.h.success()
		} else {
			se.m.FailedSweeps++
			if se.h.failedSweep(DefaultBreakerSweeps) {
				if se.h.dead {
					se.m.BreakerTrips++
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
	se.m.Rotations++
}

// dark reports whether the circuit breaker wrote the country off.
func (se *session) dark() bool { return se.h.dead }

// exitIP is the address of the exit the next attempt will use.
func (se *session) exitIP() geo.IP { return se.s.Exit().IP }

// fetchReliable performs one logical sample: up to 1+Retries attempts,
// rotating the exit between attempts and whenever the per-exit budget
// is spent. Luminati refusals are terminal — the platform's answer
// will not change with another exit. A tripped circuit breaker
// short-circuits the whole sample to ErrNoExits.
func fetchReliable(f *fetcher, se *session, seed uint64, t Task, attempt uint8) Sample {
	var last Sample
	for try := 0; try <= se.retries; try++ {
		if try > 0 {
			se.m.Retries++
		}
		if !se.ready(seed) {
			return Sample{Domain: t.Domain, Country: t.Country, Attempt: attempt, Err: ErrNoExits}
		}
		trySeed := seed + uint64(try)*0x9e3779b97f4a7c15
		last = f.fetch(trySeed, t, attempt, se.exitIP())
		if last.Err == ErrNone || last.Err == ErrLuminati {
			se.h.success()
			return last
		}
		se.rotate()
	}
	return last
}
