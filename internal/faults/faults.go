// Package faults is the deterministic fault-injection layer for the
// scan path: a seeded Injector that implements proxy.FaultHook (exit
// churn mid-session, dark-exit streaks, superproxy brownouts,
// slowloris stalls, truncated transfers, per-country failure-rate
// profiles). It acts on the residential mesh only; the VPS fleet has
// no proxy in front of it and scans fault-free.
//
// The paper's Lumscan exists because the Luminati mesh is unreliable —
// dark exits, flaky superproxies, and mid-run churn are the normal
// case (§3). The deterministic world only simulates the calibrated
// baseline of that unreliability; this package manufactures the bad
// days, reproducibly, so the robustness suite can prove the scanner
// degrades gracefully instead of hanging, spinning, or poisoning
// downstream table math.
//
// Determinism contract: every verdict is a pure function of the
// injector's seed and the call's arguments. No mutable state, no wall
// time, no call-order dependence — so a scan under a fixed fault seed
// is byte-identical at any Concurrency, and a failure found in chaos
// testing replays from a single seed. The injector counts nothing:
// the proxy session tallies the verdicts it acts on, and each scan
// unit carries its session's tally in its metrics
// (scanner.MetInjected), so fault counts travel with the unit through
// journal and fabric like every other count.
package faults

import (
	"sort"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/stats"
)

// Profile is one country's (or the default) failure-rate profile. The
// zero value injects nothing.
type Profile struct {
	// DarkExits is the fraction of the country's exits that are dark
	// for the whole run: they fail the connectivity pre-check and every
	// request. 1.0 makes the country fully dark.
	DarkExits float64
	// ExitFailure is the extra per-request probability that the exit
	// connection fails at the superproxy.
	ExitFailure float64
	// Stall is the per-request probability that the connection stalls
	// until the client times out (slowloris-shaped failure).
	Stall float64
	// Truncate is the per-request probability that the response body is
	// cut mid-transfer.
	Truncate float64
	// Churn is the probability that a given exit dies mid-session: it
	// serves a small seed-determined number of requests on a sticky
	// stretch, then fails until the session rotates away.
	Churn float64
	// Brownout is the probability that the superproxy serving a given
	// session slot is browned out when the session opens.
	Brownout float64
	// BrownoutLen is how many consecutive open attempts a brownout
	// outlasts. Zero means DefaultBrownoutLen; negative means the
	// superproxy is down for good (every attempt fails).
	BrownoutLen int
}

// DefaultBrownoutLen is how many open attempts a transient brownout
// eats when the profile does not say otherwise.
const DefaultBrownoutLen = 2

// churnSpan bounds how many requests a churning exit serves before it
// dies (1..churnSpan).
const churnSpan = 8

// active reports whether the profile injects anything at all.
func (p Profile) active() bool { return p != Profile{} }

// Injector implements proxy.FaultHook from a single seed plus a
// default and optional per-country profiles. It is safe for concurrent
// use: all methods are pure.
type Injector struct {
	seed       uint64
	def        Profile
	perCountry map[geo.CountryCode]Profile
}

// New returns an injector that injects nothing until profiles are set.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, perCountry: map[geo.CountryCode]Profile{}}
}

// Default sets the profile applied to every country without its own.
// It returns the injector for chaining.
func (in *Injector) Default(p Profile) *Injector {
	in.def = p
	return in
}

// Country overrides the profile for one country.
func (in *Injector) Country(cc geo.CountryCode, p Profile) *Injector {
	in.perCountry[cc] = p
	return in
}

// Seed returns the injector's seed (for replay reporting).
func (in *Injector) Seed() uint64 { return in.seed }

func (in *Injector) profile(cc geo.CountryCode) Profile {
	if p, ok := in.perCountry[cc]; ok {
		return p
	}
	return in.def
}

// draw returns a uniform [0,1) float that is a pure function of the
// injector seed, a label, and the keys — the only randomness source in
// the package.
func (in *Injector) draw(label string, keys ...uint64) float64 {
	h := in.seed ^ stats.Hash(label)
	for _, k := range keys {
		h = stats.Mix64(h ^ k)
	}
	return float64(stats.Mix64(h)>>11) / (1 << 53)
}

// Brownout implements proxy.FaultHook.
func (in *Injector) Brownout(cc geo.CountryCode, slot uint64, attempt int) bool {
	p := in.profile(cc)
	if p.Brownout <= 0 {
		return false
	}
	if in.draw("brownout", stats.Hash(string(cc)), slot) >= p.Brownout {
		return false
	}
	length := p.BrownoutLen
	if length == 0 {
		length = DefaultBrownoutLen
	}
	return length < 0 || attempt < length
}

// ExitDark implements proxy.FaultHook.
func (in *Injector) ExitDark(cc geo.CountryCode, exit geo.IP) bool {
	p := in.profile(cc)
	if p.DarkExits <= 0 {
		return false
	}
	return in.draw("dark", stats.Hash(string(cc)), uint64(exit)) < p.DarkExits
}

// Churned implements proxy.FaultHook.
func (in *Injector) Churned(cc geo.CountryCode, exit geo.IP, served int) bool {
	p := in.profile(cc)
	if p.Churn <= 0 {
		return false
	}
	if in.draw("churn", stats.Hash(string(cc)), uint64(exit)) >= p.Churn {
		return false
	}
	deathAt := 1 + int(stats.Mix64(in.seed^0xc4a12b^uint64(exit))%churnSpan)
	return served >= deathAt
}

// StoreCrash returns a runstore crash hook that severs the journal
// mid-record once the process has appended a seeded number of records,
// drawn uniformly from [1, span]. The threshold is a pure function of
// the injector's seed, so the kill-mid-write chaos profile crashes at
// the same record at any Concurrency — which is what lets the matrix
// assert crash → reopen → resume reproduces an uninterrupted run
// byte for byte.
func (in *Injector) StoreCrash(span int64) func(written int64) bool {
	if span < 1 {
		span = 1
	}
	at := 1 + int64(stats.Mix64(in.seed^stats.Hash("kill-mid-write"))%uint64(span))
	return func(written int64) bool { return written >= at }
}

// WorkerDeath returns a fabric worker kill hook: the worker dies after
// executing a seeded number of leased units, drawn uniformly from
// [1, span], without reporting the last one — mid-shard from the
// coordinator's view, exactly like a machine that lost power. The
// threshold is a pure function of the injector's seed; because unit
// execution is deterministic, the re-issued lease reproduces the dead
// worker's result bit for bit, which is what the fabric matrix asserts.
func (in *Injector) WorkerDeath(span int64) func(executed int64) bool {
	if span < 1 {
		span = 1
	}
	at := 1 + int64(stats.Mix64(in.seed^stats.Hash("worker-death"))%uint64(span))
	return func(executed int64) bool { return executed >= at }
}

// Request implements proxy.FaultHook: one draw, split across the
// profile's per-request rates.
func (in *Injector) Request(cc geo.CountryCode, exit geo.IP, host string, seed uint64) proxy.FaultVerdict {
	p := in.profile(cc)
	if p.ExitFailure <= 0 && p.Stall <= 0 && p.Truncate <= 0 {
		return proxy.FaultNone
	}
	u := in.draw("request", uint64(exit), stats.Hash(host), seed)
	switch {
	case u < p.ExitFailure:
		return proxy.FaultExitDown
	case u < p.ExitFailure+p.Stall:
		return proxy.FaultStall
	case u < p.ExitFailure+p.Stall+p.Truncate:
		return proxy.FaultTruncate
	}
	return proxy.FaultNone
}

// namedProfiles are the standing chaos scenarios shared by the CLIs
// (-faults) and the scanner's chaos test matrix.
var namedProfiles = map[string]Profile{
	// dark: every exit is dark — the country scans as a hard outage.
	"dark": {DarkExits: 1},
	// flaky50: half the inventory is dark and the rest drops a fifth of
	// requests — the mesh on a bad day, recoverable by rotation.
	"flaky50": {DarkExits: 0.5, ExitFailure: 0.2},
	// churn: every exit dies a few requests into its sticky stretch.
	"churn": {Churn: 1},
	// brownout: half the session slots hit a transient superproxy
	// brownout that clears after one failed open.
	"brownout": {Brownout: 0.5, BrownoutLen: 1},
	// blackout: every session open fails, permanently.
	"blackout": {Brownout: 1, BrownoutLen: -1},
	// slowloris: a third of requests stall until the client times out.
	"slowloris": {Stall: 0.35},
	// truncate: half of all transfers die mid-body.
	"truncate": {Truncate: 0.5},
	// mixed: a little of everything at once.
	"mixed": {DarkExits: 0.25, ExitFailure: 0.1, Stall: 0.1, Truncate: 0.1,
		Churn: 0.3, Brownout: 0.25, BrownoutLen: 1},
}

// Named returns the named chaos profile.
func Named(name string) (Profile, bool) {
	p, ok := namedProfiles[name]
	return p, ok
}

// Names lists the named chaos profiles, sorted.
func Names() []string {
	out := make([]string, 0, len(namedProfiles))
	for n := range namedProfiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
