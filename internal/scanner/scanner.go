// Package scanner is the reproduction of the paper's Lumscan tool
// (§3.2): a reliable scanning engine over the residential proxy mesh,
// with connectivity pre-checks on each exit, retries for failed
// requests, full control of request headers (a bare User-Agent is not
// enough to avoid bot detection), and exit rotation after a bounded
// number of requests so no end user carries the scan. Samples record
// status, body length, the serving exit and the deterministic seed
// that lets Replay re-fetch the exact body later instead of storing
// it.
//
// It is also the one way program code gets into the simulated web:
// every scan runs through Run or RunVPS, and every one-off fetch (the
// OONI comparison, the §7.3 extensions) through Fetch, which sends
// one attempt's redirect chain through a vnet.Stack or proxy.Session
// the way a scan's fetcher does.
//
// The engine splits the hot path every study phase funnels through
// into four composable layers:
//
//   - Plan and scheduler (plan.go, sched.go): a Plan shards each
//     country's task list into deterministic work units, an in-process
//     work-stealing pool executes them — so one large country no
//     longer serializes a run and parallelism scales with cores rather
//     than country count — and an Assembly emits completed units in
//     canonical order and runs the end-of-scan accounting. Each pool
//     worker resets one unit state (fetcher, session, sample buffer)
//     for every unit it runs. Run, RunVPS and the distributed fabric
//     (internal/fabric) all compose these same pieces.
//   - Session (session.go): sticky proxy-session acquisition, the
//     connectivity pre-check loop, per-exit budget rotation, and the
//     circuit breaker, driven by Config's retry knobs.
//   - Fetcher (fetch.go): one attempt as direct probe hops of the
//     session, redirects followed under http.Client's bound, plus
//     error classification.
//   - Sink (sink.go): streaming delivery of samples. Collect rebuilds
//     the classic in-memory Result; folding sinks let consumers drop
//     bodies immediately, bounding peak memory on Top-1M-scale runs.
//
// Determinism contract: every sample is a pure function of (domain,
// country, phase, attempt, shard slot). Shard boundaries and slots do
// not depend on Concurrency, and completed shards are emitted to the
// sink in canonical country-major, task-order sequence — so a scan's
// output is bit-identical at any concurrency, and Emit never needs to
// be safe for concurrent use.
package scanner

import (
	"net/http"
	"runtime"

	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

// ErrCode classifies a failed sample.
type ErrCode uint8

const (
	// ErrNone: the request completed with an HTTP response.
	ErrNone ErrCode = iota
	// ErrProxy: the exit or superproxy failed.
	ErrProxy
	// ErrTimeout: the connection timed out.
	ErrTimeout
	// ErrDNS: name resolution failed (including poisoned answers).
	ErrDNS
	// ErrReset: the connection was reset in-path.
	ErrReset
	// ErrRedirects: the redirect limit was exceeded.
	ErrRedirects
	// ErrLuminati: the proxy platform refused the domain
	// (X-Luminati-Error).
	ErrLuminati
	// ErrNoExits: the country has no usable exits.
	ErrNoExits

	// errCodeCount is one past the highest ErrCode. The fetcher's
	// per-code metric counters are indexed by it, and the
	// exhaustiveness test pins every code below it to a unique String
	// label — add a code without bumping this and the test fails fast.
	errCodeCount = int(ErrNoExits) + 1
)

func (e ErrCode) String() string {
	switch e {
	case ErrNone:
		return "ok"
	case ErrProxy:
		return "proxy"
	case ErrTimeout:
		return "timeout"
	case ErrDNS:
		return "dns"
	case ErrReset:
		return "reset"
	case ErrRedirects:
		return "redirects"
	case ErrLuminati:
		return "luminati"
	case ErrNoExits:
		return "no-exits"
	}
	return "unknown"
}

// Sample is one measurement. The struct is deliberately compact: a full
// Top-10K study holds millions of them.
type Sample struct {
	Domain  int32 // index into Result.Domains
	Country int16 // index into Result.Countries
	Attempt uint8 // which sample of the pair (0-based)
	Err     ErrCode
	Status  int16
	BodyLen int32
	ExitIP  geo.IP
	Seed    uint64 // replay key
	Body    string // retained only when Config.Bodies said so
}

// OK reports whether the sample carries an HTTP response.
func (s *Sample) OK() bool { return s.Err == ErrNone }

// OutageReason classifies why a country (or part of one) produced no
// measurements.
type OutageReason uint8

const (
	// OutageNone: no outage.
	OutageNone OutageReason = iota
	// OutageNoExits: the country has no exit inventory at all.
	OutageNoExits
	// OutageBrownout: the superproxy never accepted a session, even
	// under open-retry backoff.
	OutageBrownout
	// OutageDark: exits exist but none ever answered — the session
	// circuit breaker wrote the country off.
	OutageDark
)

func (r OutageReason) String() string {
	switch r {
	case OutageNone:
		return "none"
	case OutageNoExits:
		return "no-exits"
	case OutageBrownout:
		return "brownout"
	case OutageDark:
		return "dark"
	}
	return "unknown"
}

// Outage is the typed per-country degradation record: instead of
// poisoning downstream table math with sentinel values, a scan that
// exhausts a country's exits reports exactly what was lost. Samples for
// the lost tasks are still emitted (as ErrNoExits), so sample streams
// stay rectangular; the Outage is the accounting on top.
type Outage struct {
	Country geo.CountryCode
	// Reason is the dominant failure mode across the country's lost
	// shards.
	Reason OutageReason
	// Shards lost vs scheduled for the country.
	Shards, ShardsTotal int
	// Tasks in the lost shards.
	Tasks int
}

// Full reports whether every shard of the country was lost — the
// country contributed no measurements at all.
func (o Outage) Full() bool { return o.Shards == o.ShardsTotal }

// Coverage summarizes attained vs requested coverage — the headline
// the CLIs print so a degraded run is visible instead of silently
// thin.
type Coverage struct {
	// Requested is the number of countries the scan asked for (with at
	// least one task).
	Requested int
	// Attained is the number of countries that produced measurements
	// from at least one live shard.
	Attained int
	// Lost lists the fully lost countries, in scan order.
	Lost []geo.CountryCode
	// TasksLost counts tasks in outage-hit shards across all countries.
	TasksLost int
}

// Full reports whether every requested country was attained.
func (c Coverage) Full() bool { return c.Attained == c.Requested }

// Task is one (domain, country) pair to measure.
type Task struct {
	Domain  int32 `json:"d"`
	Country int16 `json:"c"`
}

// BodyPolicy decides which bodies a sample retains. It is a plain
// value, so a distributed work unit ships it and every worker applies
// the same policy.
type BodyPolicy uint8

const (
	// BodyDefault keeps non-200/301/302 bodies — every block page is
	// non-200.
	BodyDefault BodyPolicy = iota
	// BodyNone drops every body (status/length-only passes).
	BodyNone
	// BodyAll keeps every body.
	BodyAll
)

func (p BodyPolicy) String() string {
	switch p {
	case BodyDefault:
		return "default"
	case BodyNone:
		return "none"
	case BodyAll:
		return "all"
	}
	return "unknown"
}

// keeps reports whether the policy retains a body served with status.
func (p BodyPolicy) keeps(status int) bool {
	switch p {
	case BodyNone:
		return false
	case BodyAll:
		return true
	}
	return status != 200 && status != 301 && status != 302
}

// DefaultShardSize is the task count per scheduler shard. Small enough
// that a skewed country splits across every core, large enough that a
// sticky session amortizes its connectivity pre-check.
const DefaultShardSize = 32

// The paper's per-exit load bound and redirect bound (§3.2, §4.1.1):
// a session rotates its exit after RequestsPerExit requests, and an
// attempt follows at most MaxRedirects redirects.
const (
	RequestsPerExit = 10
	MaxRedirects    = 10
)

// Config tunes a scan.
type Config struct {
	// Samples per (domain, country) pair.
	Samples int
	// Retries per failed sample (the Lumscan reliability feature).
	Retries int
	// Concurrency bounds the number of scheduler workers; zero takes
	// DefaultConcurrency. Output is bit-identical at any value (see the
	// package determinism contract).
	Concurrency int
	// ShardSize is the task count per scheduler shard. Zero takes
	// DefaultShardSize. Shard boundaries feed the per-shard session
	// slots, so changing ShardSize (unlike Concurrency) changes which
	// exits serve which samples.
	ShardSize int
	// Headers are sent on every request. Use BrowserHeaders for the
	// full browser set; a bare UA reproduces the ZGrab false positives.
	Headers map[string]string
	// Bodies is the body-retention policy; its zero value keeps
	// non-200 bodies.
	Bodies BodyPolicy
	// Phase salts the per-sample seeds so that repeated passes over the
	// same pairs draw fresh samples.
	Phase string
	// WrapTransport, when non-nil, wraps the RoundTrip adapter of each
	// shard's session (or VPS stack) — the middleware seam for
	// instrumentation, latency injection in benchmarks, or request
	// logging. Each hop of the fetcher's redirect loop then goes
	// through the wrapped transport as an *http.Request, instead of as
	// a direct probe; response bodies stay unrendered until read. It
	// must not change response contents, or the determinism contract
	// breaks.
	WrapTransport func(http.RoundTripper) http.RoundTripper
	// Metrics, when non-nil, receives counters and histograms from
	// every engine layer (see metrics.go for the names). Session and
	// fetch metrics arrive once per unit, at its canonical emission
	// (see UnitMetrics). Instrumentation never influences scan behavior:
	// samples are byte-identical with or without it.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives wide events from every engine layer
	// (see internal/trace). Like Metrics, tracing never influences scan
	// behavior: samples are byte-identical with or without it. Unit
	// events take their wall stamps from the tracer's wall clock, if it
	// has one.
	Trace *trace.Tracer
	// TraceCtx pins the scan-level trace context explicitly — the
	// fabric worker path, where the coordinator issued the context in
	// the PhaseSpec. When zero, the context derives from Trace's root
	// (see ScanTraceCtx). Either way every party derives identical
	// per-unit contexts.
	TraceCtx trace.SpanCtx
	// Resume, when non-nil, marks a canonical-order prefix of the
	// scan's shards as already measured by an earlier run. The engine
	// skips their work entirely — the journal layer replays their
	// persisted samples into the sink beforehand — while still
	// crediting their counters and outage accounting from the recorded
	// loss reasons, so a resumed run's deterministic telemetry and
	// coverage math match an uninterrupted run's exactly. Skipped
	// shards record no trace events: a resumed run's trace covers
	// only the shards it executes.
	Resume *Resume
}

// Resume is the checkpoint index's view of how far an interrupted scan
// got: Shards completed scheduler shards, in canonical order, and each
// one's OutageReason (OutageNone for healthy shards). The engine folds
// the reasons back into the outage and coverage accounting exactly as
// if the shards had just run.
type Resume struct {
	Shards int
	Lost   []OutageReason
}

// withDefaults fills zero fields with the §4.1.1 parameters.
func (c Config) withDefaults() Config {
	if c.Samples <= 0 {
		c.Samples = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = DefaultConcurrency()
	}
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	if c.Headers == nil {
		c.Headers = BrowserHeaders()
	}
	return c
}

// DefaultConcurrency is the worker count of a scan, and of every
// study's worker pool, whose caller sets none: one worker per CPU the
// Go scheduler runs goroutines on. Output is identical at any count,
// and a worker beyond the CPUs only runs ahead of the reorder frontier,
// where few of its units' sample buffers come back to it.
func DefaultConcurrency() int { return runtime.GOMAXPROCS(0) }

// DefaultConfig is the initial-snapshot configuration of §4.1.1: three
// samples per pair, two retries, browser headers.
func DefaultConfig() Config {
	return Config{
		Samples:     3,
		Retries:     2,
		Concurrency: DefaultConcurrency(),
		Headers:     BrowserHeaders(),
		Phase:       "initial",
	}
}

// BrowserHeaders is the full header set that suppresses bot detection
// (§3.2: "merely setting User-Agent is insufficient").
func BrowserHeaders() map[string]string {
	return map[string]string{
		"User-Agent":      "Mozilla/5.0 (Macintosh; Intel Mac OS X 10.13; rv:61.0) Gecko/20100101 Firefox/61.0",
		"Accept":          "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8",
		"Accept-Language": "en-US,en;q=0.5",
	}
}

// ZGrabHeaders is the bare header set of the §3.1 VPS exploration.
func ZGrabHeaders() map[string]string {
	return map[string]string{
		"User-Agent": "Mozilla/5.0 (Macintosh; Intel Mac OS X 10.13; rv:61.0) Gecko/20100101 Firefox/61.0",
	}
}

// Result is a completed scan.
type Result struct {
	Domains   []string
	Countries []geo.CountryCode
	Samples   []Sample
	// Outages lists countries that lost shards to dead exits, dark
	// inventories, or superproxy brownouts, in scan order.
	Outages []Outage
	// Coverage is the attained-vs-requested summary for the run.
	Coverage Coverage
}

// ExitLoad summarizes how many requests each exit machine served — the
// accounting behind the paper's promise that the scan "keeps us from
// consuming too many resources on any single end user's machine"
// (§3.2). Counting is per contiguous stretch on an exit: the per-exit
// budget bounds each stretch, and rotation cycles the inventory.
type ExitLoad struct {
	// MaxStretch is the longest run of consecutive samples served by
	// one exit within a country.
	MaxStretch int
	// PerExit counts total samples per exit address.
	PerExit map[geo.IP]int
}

// LoadReport computes the per-exit accounting from the samples.
func (r *Result) LoadReport() ExitLoad {
	load := ExitLoad{PerExit: map[geo.IP]int{}}
	var prevExit geo.IP
	var prevCountry int16 = -1
	stretch := 0
	for i := range r.Samples {
		s := &r.Samples[i]
		if s.ExitIP == 0 {
			continue
		}
		load.PerExit[s.ExitIP]++
		if s.ExitIP == prevExit && s.Country == prevCountry {
			stretch++
		} else {
			stretch = 1
			prevExit, prevCountry = s.ExitIP, s.Country
		}
		if stretch > load.MaxStretch {
			load.MaxStretch = stretch
		}
	}
	return load
}

// CrossProduct builds the full task matrix.
func CrossProduct(nDomains, nCountries int) []Task {
	tasks := make([]Task, 0, nDomains*nCountries)
	for c := 0; c < nCountries; c++ {
		for d := 0; d < nDomains; d++ {
			tasks = append(tasks, Task{Domain: int32(d), Country: int16(c)})
		}
	}
	return tasks
}

// The deterministic per-sample seed is a pure function of (domain,
// country, phase, attempt), derived in two steps so the scan loops hash
// each name once: seedSalt once per shard, stats.Hash(domain) once per
// task, and saltedSeed per sample.

// seedSalt is the shard-invariant part of a sample seed.
func seedSalt(country, phase string) uint64 {
	return stats.Hash(country)<<1 ^ stats.Hash(phase)<<2
}

// saltedSeed derives a sample seed from the domain's hash and the
// shard's salt.
func saltedSeed(domain, salt uint64, attempt int) uint64 {
	return stats.Mix64(domain ^ salt ^ uint64(attempt+1)*0x100000001b3)
}
