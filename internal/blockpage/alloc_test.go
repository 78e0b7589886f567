package blockpage

import (
	"testing"

	"geoblock/internal/stats"
)

// TestRenderAllocs pins one allocation per page: every block page but
// the field-free nginx one (none), the formatted junk pages, and origin
// pages of every golden variant.
func TestRenderAllocs(t *testing.T) {
	for i, v := range goldenVars {
		for _, k := range allKinds() {
			want := 1.0
			if k == Nginx {
				want = 0
			}
			if n := testing.AllocsPerRun(20, func() { Render(k, v) }); n != want {
				t.Errorf("Render(%v) with vars %d: %v allocations, want %v", k, i, n, want)
			}
		}
	}
	for _, k := range []JunkKind{JunkMaintenance, JunkEmptyApp, JunkParked} {
		if n := testing.AllocsPerRun(20, func() { RenderJunk(k, "parked.example", "x9a1b2") }); n != 1 {
			t.Errorf("RenderJunk(%d): %v allocations, want 1", k, n)
		}
	}
	site := NewOriginSite("alloc.example.com", stats.NewRNG(3))
	for vi, v := range goldenVariants {
		if n := testing.AllocsPerRun(20, func() { site.RenderVariant(9, v) }); n != 1 {
			t.Errorf("RenderVariant with variant %d: %v allocations, want 1", vi, n)
		}
	}
}
