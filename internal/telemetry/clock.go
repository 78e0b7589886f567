// The clock seam. This file is the only place in internal/telemetry —
// and, outside test suppressions, the only place in the engine — that
// may read the wall clock; geolint's determinism analyzer rejects
// time.Now anywhere else in the package. Everything downstream takes
// time from an injected Clock, so instrumented code stays a pure
// function of its inputs when the clock is virtual.
package telemetry

import (
	"sync/atomic"
	"time"
)

// Clock supplies the current time to a Registry. Implementations must
// be safe for concurrent use.
type Clock interface {
	Now() time.Time
}

// Wall reads the operating system clock. Inject it in CLI surfaces
// where real latencies matter; never in tests or deterministic runs.
type Wall struct{}

// Now returns the wall-clock time.
func (Wall) Now() time.Time {
	return time.Now() // the engine's sole sanctioned wall-clock read
}

// wallTicker starts a real-time ticker. It lives here — not in the
// progress reporter that uses it — so every wall-time read in the
// package, periodic or point-in-time, sits inside the one sanctioned
// seam, where clockflow's transitive-reachability facts start from.
func wallTicker(every time.Duration) *time.Ticker {
	return time.NewTicker(every)
}

// Virtual is a manually advanced clock pinned at the Unix epoch. It
// only moves when Advance is called, so durations measured against it
// are zero (or exactly the advanced amount) — the foundation of
// byte-identical snapshots and traces.
type Virtual struct {
	ns atomic.Int64 // nanoseconds since the epoch
}

// NewVirtual returns a virtual clock at the Unix epoch.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the virtual time in UTC.
func (v *Virtual) Now() time.Time {
	return time.Unix(0, v.ns.Load()).UTC()
}

// Advance moves the clock forward by d.
func (v *Virtual) Advance(d time.Duration) {
	v.ns.Add(int64(d))
}
