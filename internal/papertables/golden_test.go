package papertables

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"geoblock/internal/cfrules"
	"geoblock/internal/geo"
	"geoblock/internal/lumscan"
	"geoblock/internal/pipeline"
	"geoblock/internal/worldgen"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestPaperTablesGolden renders the top10k, top1m and cfrules studies
// through the same Print functions geoscan calls, from a fixed world,
// and diffs the output against the canonical copy under testdata/.
// Table-math regressions — a changed denominator, a
// reordered row, a broken percentage — fail loudly here instead of
// drifting silently. Refresh intentionally with:
//
//	go test ./internal/papertables/ -run Golden -update
func TestPaperTablesGolden(t *testing.T) {
	w := worldgen.Generate(worldgen.TestConfig())
	s := pipeline.New(w)

	var buf bytes.Buffer
	PrintTop10K(&buf, w, s.RunTop10K(pipeline.Top10KConfig{}))
	PrintTop1M(&buf, w, s.RunTop1M(pipeline.Top1MConfig{}))
	PrintCloudflareTable9(&buf, w.Geo, cfrules.Synthesize(w.Cfg.Seed, w.Cfg.Scale))

	compareGolden(t, "tables.golden", buf.Bytes())
}

// TestCoverageTableGolden pins the degraded-run rendering: outage rows
// and the attained-vs-requested header, plus the quiet full-coverage
// form.
func TestCoverageTableGolden(t *testing.T) {
	var buf bytes.Buffer
	PrintCoverage(&buf, "chaos scan", []lumscan.Outage{
		{Country: "IR", Reason: lumscan.OutageDark, Shards: 13, ShardsTotal: 13, Tasks: 391},
		{Country: "SY", Reason: lumscan.OutageBrownout, Shards: 2, ShardsTotal: 9, Tasks: 64},
	}, lumscan.Coverage{Requested: 177, Attained: 176, Lost: []geo.CountryCode{"IR"}, TasksLost: 455})
	PrintCoverage(&buf, "clean scan", nil, lumscan.Coverage{Requested: 177, Attained: 177})
	compareGolden(t, "coverage.golden", buf.Bytes())
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Report the first diverging line, not a wall of bytes.
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s\n(re-run with -update if the change is intentional)",
				name, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: output is %d lines, golden is %d (re-run with -update if intentional)",
		name, len(gotLines), len(wantLines))
}
