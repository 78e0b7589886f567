// The golden table: the study outcome every world of the run seeds is
// expected to have at benchScale, committed so that a change which
// alters what the study outputs fails the benchmark's checks even when
// it does so deterministically.
package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenSeeds is the --seed range golden.json covers: seeds 0 to
// goldenSeeds-1, each with its worldsPerRun worlds.
const goldenSeeds = 100

//go:embed golden.json
var goldenJSON []byte

// goldenFile is golden.json: the scale it was made at and, keyed by the
// decimal world seed, each world's expected outcome.
type goldenFile struct {
	Scale  float64                  `json:"scale"`
	Worlds map[string]goldenOutcome `json:"worlds"`
}

type goldenOutcome struct {
	ETag     string `json:"etag"`
	Findings int    `json:"findings"`
	Samples  int64  `json:"samples"`
}

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return g
}()

// goldenFor returns the committed outcome of the run's world-th world,
// or false when golden.json has none for the run's scale and seed.
func goldenFor(o options, world int) (outcome, bool) {
	if o.scale != golden.Scale {
		return outcome{}, false
	}
	g, ok := golden.Worlds[strconv.FormatUint(worldConfig(o, world).Seed, 10)]
	if !ok {
		return outcome{}, false
	}
	return outcome{etag: g.ETag, findings: g.Findings, samples: g.Samples}, true
}

// expected is what every study of a world is checked against: the
// golden outcome, which the world's reference run must match, or, for a
// world golden.json does not cover, the reference run itself. The
// second case is said on standard error, because it only catches a run
// that disagrees with another run of the same build.
func expected(o options, rep *report, world int, ref outcome) outcome {
	want, ok := goldenFor(o, world)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: golden.json has no outcome for world seed %d at scale %g (it covers seeds 0-%d at scale %g); checking against this build's own reference run only\n",
			worldConfig(o, world).Seed, o.scale, goldenSeeds-1, golden.Scale)
		return ref
	}
	rep.checkStudy(fmt.Sprintf("reference study of world %d against golden.json", world), ref, want)
	return want
}
