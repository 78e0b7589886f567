package lint_test

import (
	"path/filepath"
	"testing"

	"geoblock/internal/lint"
)

// TestSuiteSelfClean runs the full suite over the whole module, test
// files included — the same invocation as `make lint` — and requires
// zero diagnostics. Any new wall-clock call, unsorted map emission,
// severed context, dropped outcome, naked goroutine, codec-parity gap,
// metric-class conflict, or snapshot-discipline violation anywhere in
// the tree fails this test; a //geolint:allow directive with its
// reason is the one sanctioned escape.
func TestSuiteSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, d := range lint.Check(pkgs, lint.All()) {
		t.Errorf("%s", d)
	}
}
