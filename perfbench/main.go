// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints
// as the last line of its standard output one JSON object:
//
//	{"correct":true,"attempted":7,"failed":0,"metrics":{"pass_s":{"value":2.1,"unit":"s"},...}}
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload top10k --seed 11 --seconds 12 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json, measured on untraced runs through the geoblock
// facade. With --trace 1 the benchmark runs its traced suite instead
// (traced.go) and reports the per-layer table. The line before the
// result stamps the environment the numbers were taken in.
//
// The workloads (BENCHMARK.json says why each exists):
//
//	top10k        the §4 study in process, no journal, no fabric
//	verdict-edge  lookups on a verdict.Holder while a writer swaps versions
//
// The traced suite also runs the study journaled, resumed from its
// journal, and through a loopback fabric coordinator and worker, so
// their layers appear in the per-layer table.
//
// Every study is checked against the outcome golden.json commits for
// its world (golden.go); a seed the table does not cover is said on
// standard error and checked against a reference run instead.
//
// Every workload builds its worlds from --seed at scale 0.03, with
// GOMAXPROCS and the study's Concurrency pinned to the CPU count. A
// study's output is byte-identical at any concurrency, so the pin only
// fixes how the load is scheduled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// benchScale is the world scale of every workload. At 0.03 one study
// delivers about 130k samples in about 1.4 s on a 2-core box, so a run
// makes several passes over several worlds and reports medians.
const benchScale = 0.03

// options configures one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	procs    int
	// dir receives the traced suite's span dump. scratch, made inside
	// dir for each run and removed when the run ends, holds journals.
	dir     string
	scratch string
}

// workloads maps each workload to its untraced run.
var workloads = map[string]func(options, *report) error{
	"top10k":       runTop10K,
	"verdict-edge": runEdge,
}

func main() {
	o := options{scale: benchScale, procs: runtime.NumCPU(), dir: ".bench_build"}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 11, "world seed every input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to repeat the timed passes")
	trace := flag.Int("trace", 0, "1 runs the traced suite and reports the per-layer table")
	flag.Parse()
	o.trace = *trace == 1
	runtime.GOMAXPROCS(o.procs)

	rep, err := run(o)
	if err != nil {
		fail(err)
	}
	env, err := json.Marshal(map[string]environment{"env": stamp(o, rep)})
	if err != nil {
		fail(err)
	}
	// A NaN or infinite metric (a divide by a zero count) fails here.
	out, err := json.Marshal(rep.result())
	if err != nil {
		fail(err)
	}
	fmt.Println(string(env))
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// run executes one workload, or the traced suite, and returns its
// report.
func run(o options) (*report, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.dir, "scratch-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	o.scratch = scratch

	rep := &report{metrics: map[string]metric{}}
	if o.trace {
		err = tracedSuite(o, rep)
	} else {
		err = wl(o, rep)
	}
	return rep, err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics and output checks.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	// raw holds the untimed-workload figures behind the host-scaled
	// metrics (reportPasses); they go to the environment line.
	raw map[string]float64
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one checked operation, and a failure when ok is false;
// failures are described on standard error.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// environment is stamped on the line before every result.
type environment struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	Scale       float64 `json:"scale"`
	Concurrency int     `json:"concurrency"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	// Raw is the run's unscaled throughput and CPU per item and its median
	// host kernel round (measure.go).
	Raw map[string]float64 `json:"raw,omitempty"`
}

func stamp(o options, rep *report) environment {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		Workload:    o.workload,
		Seed:        o.seed,
		Seconds:     o.seconds,
		Traced:      o.trace,
		Scale:       o.scale,
		Concurrency: o.procs,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit,
		Raw:         rep.raw,
	}
}
