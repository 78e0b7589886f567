package lint_test

import (
	"testing"

	"geoblock/internal/lint"
	"geoblock/internal/lint/linttest"
)

// Each analyzer runs over fixture packages under testdata/src whose
// // want comments pin both its positives and its negatives. These are
// also the seeded violations of the acceptance criteria: a regression
// that stops an analyzer firing breaks an expectation here.

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Determinism,
		"geoblock/internal/pipeline/dfix",
		// The journal layer times fsyncs via the injected clock seam.
		"geoblock/internal/runstore/dfix",
		// Telemetry: wall clock legal only in the clock.go Clock seam.
		"geoblock/internal/telemetry/tfix",
		// The fabric: lease deadlines and worker backoff must flow
		// through the injected clock/Sleep seams.
		"geoblock/internal/fabric/dfix",
		// The verdict edge: limiter refills and snapshot versions must
		// come from the injected clock and the world's policy clock.
		"geoblock/internal/verdict/dfix",
		// The trace layer: event stamps flow through the tracer's
		// injected clocks, never a direct wall read.
		"geoblock/internal/trace/dfix",
		// Out of scope: the wall clock is legal off the scan path.
		"geoblock/internal/cdnid/dfix")
}

func TestMapsort(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Mapsort,
		"geoblock/internal/papertables/msfix")
}

func TestCtxflow(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Ctxflow,
		"geoblock/internal/scanner/cfix")
}

func TestOutcomecheck(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Outcomecheck,
		"geoblock/internal/pipeline/ocfix")
}

func TestNakedgo(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Nakedgo,
		"geoblock/internal/scanner/ngfix",
		"geoblock/internal/fabric/ngfix",
		"geoblock/internal/verdict/ngfix",
		"geoblock/internal/ooni/ngfix")
}

func TestClockflow(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Clockflow,
		// Facts flow clockwrap → timeutil → the scan path: the wrapper
		// around time.Now sits two packages away from the diagnostic.
		"geoblock/internal/clockwrap",
		"geoblock/internal/timeutil",
		"geoblock/internal/scanner/cffix")
}

func TestWirecheck(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Wirecheck,
		"geoblock/internal/runstore/wcfix")
}

func TestTelemetrycheck(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Telemetrycheck,
		// Both packages in one Check call: the T2 class conflict is a
		// cross-package reconciliation in the Finish pass.
		"geoblock/internal/fabric/tcfix2",
		"geoblock/internal/pipeline/tcfix",
		// Trace instrumentation: per-event metric names are dynamic
		// names, the namespace audit's nightmare case.
		"geoblock/internal/trace/tcfix")
}

func TestSwapcheck(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.Swapcheck,
		// netwrap is out of scope but its netio facts feed swfix's S3.
		"geoblock/internal/netwrap",
		"geoblock/internal/fabric/swfix",
		// The tracer's event store and flight ring are mutex-guarded
		// shared state like any other snapshot.
		"geoblock/internal/trace/swfix")
}
