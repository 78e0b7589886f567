// Package lumscan is the reproduction of the paper's Lumscan tool
// (§3.2): a reliable scanning engine over the residential proxy mesh.
// Its features are the ones the paper calls out — connectivity
// pre-checks on each exit, configurable retries for failed requests,
// full control of request headers (a bare User-Agent is not enough to
// avoid bot detection), and load balancing that rotates exit machines
// after a bounded number of requests so no end user carries the scan.
//
// Samples record status, body length (from Content-Length, so bodies
// that are not needed are never rendered), the exit that served them,
// and the deterministic seed that allows the exact response body to be
// re-fetched later (Replay) instead of storing terabytes of HTML.
//
// The engine itself lives in internal/scanner, layered as scheduler /
// session / fetcher / sink; this package re-exports it and adds the
// paper-shaped conveniences (DefaultConfig, Replay). Scan and ScanVPS
// materialize full results; ScanStream and ScanVPSStream take a
// context.Context for cancellation and deliver samples to a Sink as
// shards finish — in canonical country-major, task order, at any
// concurrency — so folding consumers never hold a full result.
package lumscan

import (
	"context"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/scanner"
)

// The scan-engine vocabulary, re-exported from internal/scanner.
type (
	// ErrCode classifies a failed sample.
	ErrCode = scanner.ErrCode
	// Sample is one measurement.
	Sample = scanner.Sample
	// Task is one (domain, country) pair to measure.
	Task = scanner.Task
	// Config tunes a scan.
	Config = scanner.Config
	// Result is a completed scan.
	Result = scanner.Result
	// ExitLoad is the per-exit load accounting of Result.LoadReport.
	ExitLoad = scanner.ExitLoad
	// Sink receives samples as they stream out of a scan.
	Sink = scanner.Sink
	// SinkFunc adapts a function to the Sink interface.
	SinkFunc = scanner.SinkFunc
	// Collect is the materializing sink.
	Collect = scanner.Collect
	// Outage is the typed per-country degradation record.
	Outage = scanner.Outage
	// OutageReason classifies why a country produced no measurements.
	OutageReason = scanner.OutageReason
	// OutageSink is the optional sink channel for outage/coverage records.
	OutageSink = scanner.OutageSink
	// Coverage is the attained-vs-requested summary of a run.
	Coverage = scanner.Coverage
	// BodyPolicy is the serializable body-retention policy.
	BodyPolicy = scanner.BodyPolicy
	// WorkUnit is one leasable scheduler shard (the distributed fabric's
	// unit of work).
	WorkUnit = scanner.WorkUnit
)

const (
	OutageNone     = scanner.OutageNone
	OutageNoExits  = scanner.OutageNoExits
	OutageBrownout = scanner.OutageBrownout
	OutageDark     = scanner.OutageDark

	ErrNone      = scanner.ErrNone
	ErrProxy     = scanner.ErrProxy
	ErrTimeout   = scanner.ErrTimeout
	ErrDNS       = scanner.ErrDNS
	ErrReset     = scanner.ErrReset
	ErrRedirects = scanner.ErrRedirects
	ErrLuminati  = scanner.ErrLuminati
	ErrNoExits   = scanner.ErrNoExits

	BodyDefault = scanner.BodyDefault
	BodyNone    = scanner.BodyNone
	BodyAll     = scanner.BodyAll
)

// CrossProduct builds the full task matrix.
var CrossProduct = scanner.CrossProduct

// BrowserHeaders is the full header set that suppresses bot detection
// (§3.2: "merely setting User-Agent is insufficient").
var BrowserHeaders = scanner.BrowserHeaders

// ZGrabHeaders is the bare header set of the §3.1 VPS exploration.
var ZGrabHeaders = scanner.ZGrabHeaders

// ProgressLine renders a one-line scan progress summary from a
// telemetry registry the scan was pointed at (Config.Metrics).
var ProgressLine = scanner.ProgressLine

// MixHeaders folds a header set into a digest in sorted key order.
var MixHeaders = scanner.MixHeaders

// DefaultConfig is the initial-snapshot configuration of §4.1.1.
func DefaultConfig() Config {
	return Config{
		Samples:     3,
		Retries:     2,
		Concurrency: 8,
		Headers:     BrowserHeaders(),
		Phase:       "initial",
	}
}

// Scan measures tasks through the proxy mesh and materializes the full
// result, in canonical country-major, task order.
func Scan(net *proxy.Network, domains []string, countries []geo.CountryCode, tasks []Task, cfg Config) *Result {
	res, err := scanner.Scan(context.Background(), net, domains, countries, tasks, cfg)
	if err != nil {
		// The engine errors only on cancellation and the background
		// context is never cancelled; anything else is an engine bug,
		// not a degraded run the caller could reason about.
		panic("lumscan: uncancellable scan failed: " + err.Error())
	}
	return res
}

// ScanStream runs the scan against a streaming sink instead of
// materializing a Result: samples arrive in canonical order as shards
// complete, and a folding sink can drop bodies immediately.
func ScanStream(ctx context.Context, net *proxy.Network, domains []string, countries []geo.CountryCode, tasks []Task, cfg Config, sink Sink) error {
	return scanner.Run(ctx, net, domains, countries, tasks, cfg, sink)
}

// Replay re-fetches the exact body of a previously collected sample:
// the response is a pure function of (domain, exit address, seed), so
// the pipeline can cluster outlier bodies without having stored them.
var Replay = scanner.Replay
