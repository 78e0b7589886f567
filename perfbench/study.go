// The top10k workload: the §4 Top-10K study through the geoblock
// facade, in process, over several worlds.
package main

import (
	"geoblock"
	"geoblock/internal/scanner"
)

// worldsPerRun is how many worlds a study workload's passes cycle
// through. A world at benchScale holds a few hundred domains, and
// per-sample costs differ between such worlds by several percent, so a
// run averages over worlds instead of repeating one.
const worldsPerRun = 4

// worldConfig is the calibration of the run's world-th world, derived
// from the seed.
func worldConfig(o options, world int) geoblock.WorldConfig {
	cfg := geoblock.DefaultWorldConfig()
	cfg.Seed = o.seed*worldsPerRun + uint64(world)
	cfg.Scale = o.scale
	return cfg
}

func (o options) top10kConfig() geoblock.Top10KConfig {
	return geoblock.Top10KConfig{Concurrency: o.procs}
}

// outcome is what a study run is checked on.
type outcome struct {
	etag     string
	findings int
	// samples counts scanner.sink.samples: every sample every scan phase
	// delivered, the work a study pass is normalised by.
	samples int64
	err     error
}

func facadeOutcome(sys *geoblock.System, r *geoblock.Top10KResult) outcome {
	out := outcome{
		findings: len(r.Findings),
		samples:  sys.Metrics().Counter(scanner.MetSinkSamples).Value(),
		err:      sys.Err(),
	}
	if snap := sys.Verdicts(); snap != nil {
		out.etag = snap.ETag()
	}
	return out
}

// checkStudy fails a study run whose Err is set, or whose verdict ETag,
// finding count or sample count differs from the reference run's.
func (r *report) checkStudy(what string, got, want outcome) {
	r.check(got.err == nil && got.etag == want.etag && got.findings == want.findings && got.samples == want.samples,
		"%s: err %v, etag %s, %d findings, %d samples; reference etag %s, %d findings, %d samples",
		what, got.err, got.etag, got.findings, got.samples, want.etag, want.findings, want.samples)
}

// reference runs a world's in-process study untimed, on one goroutine
// so that it follows another schedule than the timed passes, and checks
// it against golden.json. It returns the outcome every other study of
// that world is checked against (see expected). The references also
// warm the process up before the first timed pass.
func reference(o options, rep *report, world int) (outcome, *geoblock.System, *geoblock.Top10KResult) {
	wcfg := worldConfig(o, world)
	sys := geoblock.New(geoblock.Options{World: &wcfg})
	r := sys.RunTop10K(geoblock.Top10KConfig{Concurrency: 1})
	out := facadeOutcome(sys, r)
	rep.check(out.err == nil && out.etag != "" && out.samples > 0,
		"reference study of world %d: err %v, etag %q, %d samples", world, out.err, out.etag, out.samples)
	return expected(o, rep, world, out), sys, r
}

func runTop10K(o options, rep *report) error {
	refs := make([]outcome, worldsPerRun)
	for w := range refs {
		refs[w], _, _ = reference(o, rep, w)
	}
	n := 0
	reportPasses(rep, repeat(o, func() pass {
		w := n % worldsPerRun
		n++
		return top10kPass(o, rep, refs[w], w)
	}))
	return nil
}

// top10kSetupsPerPass is how many times a top10k pass builds its
// world's system; a pass is about a second and a half, so this is about
// sixty set-ups over a 30-second run.
const top10kSetupsPerPass = 3

// top10kPass builds a world's system, its set-up, and times the study
// of the last system built.
func top10kPass(o options, rep *report, ref outcome, world int) pass {
	wcfg := worldConfig(o, world)
	var sys *geoblock.System
	setups := timeSetups(top10kSetupsPerPass, func() { sys = geoblock.New(geoblock.Options{World: &wcfg}) })
	var r *geoblock.Top10KResult
	p := pass{setups: setups, cost: measure(func() { r = sys.RunTop10K(o.top10kConfig()) }), world: world}
	out := facadeOutcome(sys, r)
	rep.checkStudy("top10k", out, ref)
	p.items = out.samples
	return p
}
