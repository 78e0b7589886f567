// Package lumscan holds the names the benchmark module (perfbench/)
// imports from the scan engine, as aliases of their internal/scanner
// originals. Program code uses internal/scanner directly; these go
// when the benchmark does.
package lumscan

import "geoblock/internal/scanner"

type (
	Sample     = scanner.Sample
	Task       = scanner.Task
	Config     = scanner.Config
	Sink       = scanner.Sink
	Collect    = scanner.Collect
	Outage     = scanner.Outage
	OutageSink = scanner.OutageSink
	Coverage   = scanner.Coverage
)

var (
	CrossProduct   = scanner.CrossProduct
	BrowserHeaders = scanner.BrowserHeaders
	DefaultConfig  = scanner.DefaultConfig
	ScanStream     = scanner.Run
	Replay         = scanner.Replay
)
