package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"geoblock"
)

var update = flag.Bool("update", false, "rewrite golden.json from this build")

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {99, 4.96}, {100, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %g, want 7", got)
	}
	if got := median([]float64{10, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values is not NaN")
	}
}

// TestHostScaling checks that a pass run while the host kernel took
// twice its reference time reports twice its raw throughput and half its
// raw CPU per item, and that the raw figures reach the environment line.
func TestHostScaling(t *testing.T) {
	p := pass{
		setups:   []time.Duration{time.Second},
		cost:     cost{wall: 2 * time.Second, cpu: 4 * time.Second, mallocs: 3000},
		items:    1000,
		hostWall: 2 * hostRefWall,
		hostCPU:  2 * hostRefCPU,
	}
	rep := &report{metrics: map[string]metric{}}
	reportPasses(rep, []pass{p})
	for name, want := range map[string]float64{
		"ref_items_per_s":     1000,
		"ref_cpu_us_per_item": 2000,
		"allocs_per_item":     3,
		"setup_s":             1,
	} {
		if got := rep.metrics[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := rep.raw["items_per_s"]; got != 500 {
		t.Errorf("raw items_per_s = %g, want 500", got)
	}
	if got := rep.raw["host_kernel_ms"]; got != ms(2*hostRefWall) {
		t.Errorf("host_kernel_ms = %g, want %g", got, ms(2*hostRefWall))
	}
}

// spec is the part of BENCHMARK.json a run's output must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	var names []string
	for _, w := range loadSpec(t).Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := fmt.Sprint(names), fmt.Sprint(workloadNames()); got != want {
		t.Errorf("BENCHMARK.json names workloads %s, the benchmark runs %s", got, want)
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, on a
// small world and checks that each run passes its output checks and
// prints exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	dir := t.TempDir()
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			o := options{workload: w.Name, seed: 7, trace: traced, scale: 0.02, procs: runtime.GOMAXPROCS(0), dir: dir}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: result does not encode: %v", w.Name, traced, err)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestEdgeKeyStream checks the verdict-edge key stream on a small
// world: it is seeded, it skews toward the top ranks, the domains the
// study filtered out answer unknown in both versions, and the two
// versions disagree on some keys.
func TestEdgeKeyStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one study")
	}
	wcfg := geoblock.DefaultWorldConfig()
	wcfg.Seed, wcfg.Scale = 7, 0.02
	sys := geoblock.New(geoblock.Options{World: &wcfg})
	r := sys.RunTop10K(geoblock.Top10KConfig{Concurrency: 1})
	if sys.Err() != nil || sys.Verdicts() == nil {
		t.Fatalf("study: err %v, snapshot %v", sys.Err(), sys.Verdicts())
	}
	srcs := edgeSources(r, sys.Verdicts().Version(), wcfg.Seed)
	keys := edgeKeyStream(3, sys.World, srcs)
	if again := edgeKeyStream(3, sys.World, srcs); fmt.Sprint(again) != fmt.Sprint(keys) {
		t.Error("the same seed drew another key stream")
	}
	known := map[string]bool{}
	for _, d := range r.SafeDomains {
		known[d] = true
	}
	top := sys.World.Top10K()
	var unknown, first, differ int
	for _, k := range keys {
		if k.domain == top[0].Name {
			first++
		}
		if k.want[0] != k.want[1] {
			differ++
		}
		switch {
		case !known[k.domain]:
			unknown++
			if k.want != [2]byte{} {
				t.Fatalf("filtered domain %s expects %v, want unknown", k.domain, k.want)
			}
		case k.want[0] == 0 || k.want[1] == 0:
			t.Fatalf("studied domain %s expects %v, want known", k.domain, k.want)
		}
	}
	if share := float64(first) / float64(len(keys)); share < 2/float64(len(top)) {
		t.Errorf("rank 1 drew %.4f of the keys, no more than uniform", share)
	}
	if unknown == 0 || unknown == len(keys) {
		t.Errorf("%d of %d keys unknown", unknown, len(keys))
	}
	if differ == 0 {
		t.Error("the two versions answer every key alike")
	}
	t.Logf("unknown share %.4f, rank-1 share %.4f, keys the versions disagree on %.4f",
		float64(unknown)/float64(len(keys)), float64(first)/float64(len(keys)), float64(differ)/float64(len(keys)))
}

// TestGolden checks golden.json against this build on one world. With
// -update it rewrites the table instead, for every world of seeds 0 to
// goldenSeeds-1 at benchScale; review the diff by hand:
//
//	cd perfbench && go test -run TestGolden -update -timeout 0
func TestGolden(t *testing.T) {
	if *update {
		writeGolden(t)
		return
	}
	if testing.Short() {
		t.Skip("runs one study")
	}
	o := options{seed: 11, scale: benchScale}
	if _, ok := goldenFor(o, 0); !ok {
		t.Fatal("golden.json has no outcome for seed 11")
	}
	rep := &report{metrics: map[string]metric{}}
	reference(o, rep, 0)
	if rep.failed != 0 {
		t.Errorf("the reference study of seed 11 disagrees with golden.json; if the change is meant, rerun with -update")
	}
}

func TestGoldenCoverage(t *testing.T) {
	if golden.Scale != benchScale {
		t.Fatalf("golden.json is at scale %g, the benchmark runs at %g", golden.Scale, benchScale)
	}
	if got, want := len(golden.Worlds), goldenSeeds*worldsPerRun; got != want {
		t.Errorf("golden.json holds %d worlds, want %d", got, want)
	}
	for _, o := range []options{
		{seed: goldenSeeds, scale: benchScale},
		{seed: 0, scale: benchScale / 2},
	} {
		if _, ok := goldenFor(o, 0); ok {
			t.Errorf("golden.json claims an outcome for seed %d at scale %g", o.seed, o.scale)
		}
	}
	// A run that differs from its expected outcome in any one field fails.
	want := outcome{etag: "gbv1-1-0", findings: 3, samples: 100}
	for _, got := range []outcome{
		{etag: "gbv1-1-1", findings: 3, samples: 100},
		{etag: "gbv1-1-0", findings: 2, samples: 100},
		{etag: "gbv1-1-0", findings: 3, samples: 99},
		{etag: "gbv1-1-0", findings: 3, samples: 100, err: os.ErrClosed},
	} {
		rep := &report{metrics: map[string]metric{}}
		rep.checkStudy("test", got, want)
		if rep.failed != 1 {
			t.Errorf("checkStudy passed %+v against %+v", got, want)
		}
	}
}

// writeGolden runs every covered world's study on one goroutine, as the
// reference runs do, GOMAXPROCS worlds at a time.
func writeGolden(t *testing.T) {
	n := goldenSeeds * worldsPerRun
	outs := make([]goldenOutcome, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := options{seed: uint64(i / worldsPerRun), scale: benchScale}
				wcfg := worldConfig(o, i%worldsPerRun)
				sys := geoblock.New(geoblock.Options{World: &wcfg})
				out := facadeOutcome(sys, sys.RunTop10K(geoblock.Top10KConfig{Concurrency: 1}))
				outs[i], errs[i] = goldenOutcome{ETag: out.etag, Findings: out.findings, Samples: out.samples}, out.err
				if out.err == nil && out.etag == "" {
					errs[i] = fmt.Errorf("no verdict snapshot")
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	var b strings.Builder
	fmt.Fprintf(&b, "{\n \"scale\": %g,\n \"worlds\": {\n", benchScale)
	for i, g := range outs {
		if errs[i] != nil {
			t.Fatalf("world %d: %v", i, errs[i])
		}
		line, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		sep := ","
		if i == n-1 {
			sep = ""
		}
		// The world seed, as worldConfig derives it.
		fmt.Fprintf(&b, "  \"%d\": %s%s\n", worldConfig(options{seed: uint64(i / worldsPerRun)}, i%worldsPerRun).Seed, line, sep)
	}
	b.WriteString(" }\n}\n")
	if err := os.WriteFile("golden.json", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
