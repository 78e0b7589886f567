package lumscan

import (
	"context"

	"geoblock/internal/proxy"
	"geoblock/internal/scanner"
)

// ScanVPS runs the §3.1-style exploration: fetching domains from the
// datacenter VPS fleet with ZGrab-like header realism. Unlike the
// residential mesh there are no proxy failures, but the crawler-ish
// fingerprint triggers bot defenses — the ~30% Akamai false-positive
// problem the paper reports. Result.Countries carries one entry per
// fleet position, and Sample.Country indexes the fleet.
func ScanVPS(fleet []*proxy.VPS, domains []string, cfg Config) *Result {
	res, err := scanner.ScanVPS(context.Background(), fleet, domains, cfg)
	if err != nil {
		// See Scan: only cancellation can error, and Background cannot
		// be cancelled.
		panic("lumscan: uncancellable scan failed: " + err.Error())
	}
	return res
}

// ScanVPSStream streams a VPS scan into sink; a nil task list scans
// the full domain × fleet cross product.
func ScanVPSStream(ctx context.Context, fleet []*proxy.VPS, domains []string, tasks []Task, cfg Config, sink Sink) error {
	return scanner.RunVPS(ctx, fleet, domains, tasks, cfg, sink)
}
