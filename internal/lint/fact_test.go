package lint

import "testing"

// TestStripVariant pins the test-variant normalization facts and
// package ordering both key on.
func TestStripVariant(t *testing.T) {
	for in, want := range map[string]string{
		"geoblock/internal/runstore":                          "geoblock/internal/runstore",
		"geoblock/internal/runstore [geoblock/runstore.test]": "geoblock/internal/runstore",
	} {
		if got := stripVariant(in); got != want {
			t.Errorf("stripVariant(%q) = %q, want %q", in, got, want)
		}
	}
}
