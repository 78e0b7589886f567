// Command geoscan runs the geoblocking studies against the simulated
// Internet and prints the paper's tables to stdout.
//
// Usage:
//
//	geoscan [-scale 0.1] [-seed 403] [-study top10k|top1m|explore|ooni|cfrules|all] [-v]
//
// At -scale 1.0 the world is paper scale (10,000 popular domains,
// ~152k Top-1M CDN customers, 177 countries); the default 0.1 runs in
// seconds on a laptop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	stdnet "net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"geoblock"
	"geoblock/internal/analysis"
	"geoblock/internal/faults"
	"geoblock/internal/lumscan"
	"geoblock/internal/papertables"
	"geoblock/internal/pipeline"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

func main() {
	scale := flag.Float64("scale", 0.1, "population scale in (0,1]; 1.0 = paper scale")
	seed := flag.Uint64("seed", 403, "world seed")
	study := flag.String("study", "top10k", "study to run: top10k, top1m, explore, ooni, cfrules, extensions, all")
	verbose := flag.Bool("v", false, "log progress")
	faultsFlag := flag.String("faults", "", "chaos profile to inject into the proxy mesh: "+strings.Join(faults.Names(), ", "))
	faultSeed := flag.Uint64("faultseed", 1, "fault-injection seed (reproducible chaos)")
	faultCountry := flag.String("faultcountry", "", "restrict the chaos profile to one country code (default: all)")
	metricsAddr := flag.String("metrics", "", "serve /debug/metrics (and pprof) on this address while the study runs")
	metricsOut := flag.String("metrics-out", "", "write the final telemetry snapshot to this file (.json for JSON, else text)")
	traceOut := flag.String("trace", "", "write the study's wide-event trace to this file (.json: Chrome trace-event JSON, loadable in Perfetto)")
	storeDir := flag.String("store", "", "journal every scan phase to this directory (crash-safe; see -resume)")
	resume := flag.Bool("resume", false, "resume an interrupted run from the -store journal instead of refusing it")
	fabricAddr := flag.String("fabric", "", "serve a distributed-scan coordinator on this address; residential scan phases then run on scanworker processes instead of in-process")
	fabricReady := flag.String("fabric-ready-file", "", "write the coordinator's resolved listen address to this file (for scripts that spawn workers)")
	flag.Parse()

	// Ctrl-C cancels in-flight scans; studies then return partial
	// results and the process exits on the next table boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Studies driven from the CLI report real latencies in their
	// histograms, and the registry backs the live endpoints below.
	reg := telemetry.NewWithClock(telemetry.Wall{})

	// One fault spec drives the in-process injector (instrumented) and,
	// under -fabric, every worker's.
	var faultSpec *geoblock.FabricFaultSpec
	var inj *faults.Injector
	if *faultsFlag != "" {
		faultSpec = &geoblock.FabricFaultSpec{Seed: *faultSeed, Profile: *faultsFlag, Country: strings.ToUpper(*faultCountry)}
		var err error
		if inj, err = faultSpec.Injector(); err != nil {
			fmt.Fprintf(os.Stderr, "geoscan: %v\n", err)
			os.Exit(2)
		}
		inj.Instrument(reg)
	}

	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "geoscan: -resume requires -store")
		os.Exit(2)
	}
	var store *geoblock.RunStore
	if *storeDir != "" {
		st, err := openStore(*storeDir, *resume, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geoscan: %v\n", err)
			os.Exit(2)
		}
		defer st.Close()
		store = st
	}

	// -trace arms the tracer for the whole study: every phase's scan
	// records into it, and the merged timeline lands in one file at the
	// end. Flight dumps go to stderr on an Outage or a panic.
	var tracer *geoblock.Tracer
	if *traceOut != "" {
		tracer = geoblock.NewTracer(*seed).WithWall(telemetry.Wall{}).WithFlightSink(os.Stderr)
		defer trace.CrashDump(tracer, os.Stderr)
	}

	opts := geoblock.Options{Seed: *seed, Scale: *scale, Ctx: ctx, Metrics: reg, Store: store, Trace: tracer}
	if *verbose {
		opts.Log = func(format string, args ...any) {
			log.Printf(format, args...)
		}
	}

	// -fabric: become the coordinator of a distributed study. The world
	// calibration is pinned explicitly so workers regenerate the exact
	// same world from the study spec.
	var coord *geoblock.FabricCoordinator
	if *fabricAddr != "" {
		wcfg := geoblock.DefaultWorldConfig()
		wcfg.Seed = *seed
		wcfg.Scale = *scale
		spec := geoblock.FabricStudySpec{World: wcfg, Faults: faultSpec}
		coord = geoblock.NewFabric(geoblock.FabricOptions{Study: spec, Metrics: reg, Trace: tracer})
		ln, lerr := stdnet.Listen("tcp", *fabricAddr)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "geoscan: fabric listener: %v\n", lerr)
			os.Exit(2)
		}
		srv := &http.Server{Handler: coord.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "geoscan: fabric server: %v\n", err)
			}
		}()
		defer srv.Close()
		if *fabricReady != "" {
			if werr := os.WriteFile(*fabricReady, []byte(ln.Addr().String()), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "geoscan: fabric-ready-file: %v\n", werr)
				os.Exit(2)
			}
		}
		fmt.Fprintf(os.Stderr, "geoscan: fabric coordinator on http://%s (start workers: scanworker -coordinator http://%s)\n", ln.Addr(), ln.Addr())
		opts.World = &wcfg
		opts.Fabric = coord
	}
	sys := geoblock.New(opts)
	out := os.Stdout

	if *metricsAddr != "" {
		srv := telemetry.MetricsServer(*metricsAddr, reg)
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "geoscan: metrics server: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "geoscan: metrics on http://%s/debug/metrics\n", *metricsAddr)
	}
	stopProgress := telemetry.StartProgress(os.Stderr, 2*time.Second, func() string {
		return "geoscan: " + lumscan.ProgressLine(reg)
	})
	defer stopProgress()

	if inj != nil {
		sys.Net().SetFaults(inj)
		fmt.Fprintf(os.Stderr, "geoscan: chaos profile %q (seed %d) active\n", *faultsFlag, *faultSeed)
	}

	runTop10K := func() {
		papertables.PrintTop10K(out, sys.World, sys.RunTop10K(geoblock.Top10KConfig{}))
	}
	runTop1M := func() {
		papertables.PrintTop1M(out, sys.World, sys.RunTop1M(geoblock.Top1MConfig{}))
	}

	runExtensions := func() {
		r := sys.RunTop10K(geoblock.Top10KConfig{})
		papertables.PrintTimeouts(out, sys.AnalyzeTimeouts(r, 10))
		papertables.PrintAppLayer(out, sys.RunAppLayerStudy(analysis.RespondingDomains(r.Initial), "US", pipeline.AppLayerTargets()))
		papertables.PrintRegional(out, sys.RunRegionalAnalysis(r.RegionalCandidates(), 12))
	}

	switch *study {
	case "top10k":
		runTop10K()
	case "top1m":
		runTop1M()
	case "explore":
		papertables.PrintExploration(out, sys.RunExploration())
	case "ooni":
		corpus := sys.SynthesizeOONI(2)
		papertables.PrintOONI(out, sys.AnalyzeOONI(corpus))
	case "cfrules":
		papertables.PrintCloudflareTable9(out, sys.World.Geo, sys.CloudflareRulesSnapshot())
	case "extensions":
		runExtensions()
	case "all":
		papertables.PrintExploration(out, sys.RunExploration())
		runTop10K()
		runTop1M()
		corpus := sys.SynthesizeOONI(2)
		papertables.PrintOONI(out, sys.AnalyzeOONI(corpus))
		papertables.PrintCloudflareTable9(out, sys.World.Geo, sys.CloudflareRulesSnapshot())
	default:
		fmt.Fprintf(os.Stderr, "unknown study %q\n", *study)
		os.Exit(2)
	}

	stopProgress()
	if coord != nil {
		coord.FinishStudy()
		// Grace period: let polling workers observe study-done and exit
		// cleanly before the coordinator endpoint disappears.
		time.Sleep(time.Second) //geolint:allow determinism worker-drain grace period on the real wall clock
	}
	if *metricsOut != "" {
		if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "geoscan: metrics-out: %v\n", err)
		}
	}
	if *traceOut != "" {
		snap := tracer.Snapshot()
		if werr := snap.WriteFile(*traceOut); werr != nil {
			fmt.Fprintf(os.Stderr, "geoscan: trace: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "geoscan: %d trace events written to %s (open in ui.perfetto.dev)\n", len(snap.Events), *traceOut)
		}
	}
	// A study that lost a phase (cancellation, journal severance, a
	// failed fabric phase) printed partial tables; say so and exit
	// non-zero, naming the phase that died.
	if err := sys.Err(); err != nil {
		if store != nil {
			store.Close()
		}
		fmt.Fprintf(os.Stderr, "geoscan: study aborted: %v\n", err)
		os.Exit(1)
	}
}

// openStore opens the run journal, refusing to silently extend an
// existing one: a journal that already holds phases is only reopened
// under -resume, so a mistyped -store directory can't splice two runs.
func openStore(dir string, resume bool, reg *telemetry.Registry) (*geoblock.RunStore, error) {
	st, err := geoblock.OpenRunStore(dir, geoblock.RunStoreOptions{Metrics: reg})
	if err != nil {
		return nil, err
	}
	if phases := st.Phases(); len(phases) > 0 && !resume {
		st.Close()
		return nil, fmt.Errorf("%s already holds a journal (%d phases); pass -resume to continue it, or point -store at a fresh directory", dir, len(phases))
	}
	if resume {
		var done, shards int
		for _, ph := range st.Phases() {
			if ph.Done {
				done++
			}
			shards += ph.Shards
		}
		fmt.Fprintf(os.Stderr, "geoscan: resuming from %s: %d phases journaled (%d complete, %d shards checkpointed)\n",
			dir, len(st.Phases()), done, shards)
	}
	return st, nil
}
