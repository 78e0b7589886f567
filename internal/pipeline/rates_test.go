package pipeline

import (
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/fingerprint"
	"geoblock/internal/geo"
	"geoblock/internal/lumscan"
)

func TestCollectPairRates(t *testing.T) {
	s := &Study{Classifier: fingerprint.NewClassifier()}
	cfBody := blockpage.Render(blockpage.Cloudflare, blockpage.Vars{
		Domain: "x.example", CountryName: "Iran", RayID: "abc123", ClientIP: "1.2.3.4",
	})
	gaeBody := blockpage.Render(blockpage.AppEngine, blockpage.Vars{
		Domain: "x.example", CountryName: "Iran",
	})

	res := &lumscan.Result{
		Domains:   []string{"x.example"},
		Countries: []geo.CountryCode{"IR"},
		Samples: []lumscan.Sample{
			// Three responses: two matching the tracked kind, one an
			// origin page (body dropped), one error (excluded).
			{Domain: 0, Country: 0, Status: 403, Body: cfBody},
			{Domain: 0, Country: 0, Status: 403, Body: cfBody},
			{Domain: 0, Country: 0, Status: 200},
			{Domain: 0, Country: 0, Err: lumscan.ErrTimeout},
			// A different block page does NOT count toward this pair's
			// kind.
			{Domain: 0, Country: 0, Status: 403, Body: gaeBody},
		},
	}
	kinds := map[pairKey]blockpage.Kind{{0, 0}: blockpage.Cloudflare}
	cands := map[pairKey]*candidate{}
	collectPairRates(res, s.classifyBodies(res, 2), kinds, cands)

	c := cands[pairKey{0, 0}]
	if c == nil {
		t.Fatal("pair not collected")
	}
	if c.rate.Responses != 4 {
		t.Fatalf("responses = %d, want 4 (errors excluded)", c.rate.Responses)
	}
	if c.rate.Blocks != 2 {
		t.Fatalf("blocks = %d, want 2 (only the tracked kind counts)", c.rate.Blocks)
	}
}

func TestCollectPairRatesIgnoresUntracked(t *testing.T) {
	s := &Study{Classifier: fingerprint.NewClassifier()}
	res := &lumscan.Result{
		Domains:   []string{"x.example", "y.example"},
		Countries: []geo.CountryCode{"IR"},
		Samples: []lumscan.Sample{
			{Domain: 1, Country: 0, Status: 200},
		},
	}
	cands := map[pairKey]*candidate{}
	collectPairRates(res, s.classifyBodies(res, 2), map[pairKey]blockpage.Kind{{0, 0}: blockpage.Cloudflare}, cands)
	if len(cands) != 0 {
		t.Fatalf("untracked pair collected: %v", cands)
	}
}
