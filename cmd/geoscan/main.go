// Command geoscan runs the geoblocking studies against the simulated
// Internet and prints the paper's tables to stdout.
//
// Usage:
//
//	geoscan [-scale 0.1] [-seed 403] [-study top10k|top1m|explore|ooni|cfrules|extensions|lumscan|all] [-v]
//
// At -scale 1.0 the world is paper scale (10,000 popular domains,
// ~152k Top-1M CDN customers, 177 countries); the default 0.1 runs in
// seconds on a laptop.
//
// -study lumscan is the interactive face of the scanning engine: probe
// chosen domains from chosen countries through the simulated
// residential proxy mesh and print per-sample results — the workflow
// the paper's operators used when manually verifying block pages.
//
//	geoscan -study lumscan -domains airbnb.fr,fasttech.com -countries IR,CN,US -samples 5
//
// Pass -domains all to scan the whole (safe) Top-10K population, or
// -zgrab to use the bare ZGrab header set and watch bot defenses fire.
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
	"geoblock/internal/fingerprint"
	"geoblock/internal/papertables"
	"geoblock/internal/pipeline"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

func main() {
	scale := flag.Float64("scale", 0.1, "population scale in (0,1]; 1.0 = paper scale")
	seed := flag.Uint64("seed", 403, "world seed")
	study := flag.String("study", "top10k", "study to run: top10k, top1m, explore, ooni, cfrules, extensions, lumscan, all")
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
	domainsFlag := flag.String("domains", "airbnb.fr,fasttech.com,geniusdisplay.com", "comma-separated domains, or 'all'")
	countriesFlag := flag.String("countries", "US,IR,SY,CN,RU", "comma-separated country codes")
	samples := flag.Int("samples", 3, "samples per (domain, country) pair")
	zgrab := flag.Bool("zgrab", false, "use the bare ZGrab header set instead of browser headers")
	showErrors := flag.Bool("errors", false, "print failed samples too")
	flag.Parse()

	// Ctrl-C cancels in-flight scans; studies then return partial
	// results and the process exits on the next table boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The registry backs the live endpoints below; its wall clock times
	// the journal's fsyncs.
	reg := telemetry.NewWithClock(telemetry.Wall{})

	// One fault spec drives the in-process injector and, under -fabric,
	// every worker's.
	var faultSpec *geoblock.FabricFaultSpec
	var inj *faults.Injector
	if *faultsFlag != "" {
		faultSpec = &geoblock.FabricFaultSpec{Seed: *faultSeed, Profile: *faultsFlag, Country: strings.ToUpper(*faultCountry)}
		var err error
		if inj, err = faultSpec.Injector(); err != nil {
			fmt.Fprintf(os.Stderr, "geoscan: %v\n", err)
			os.Exit(2)
		}
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

	// The world calibration is pinned explicitly, because -fabric ships
	// it to workers verbatim and they regenerate the exact same world
	// from it.
	wcfg := geoblock.DefaultWorldConfig()
	if *seed != 0 {
		wcfg.Seed = *seed
	}
	if *scale != 0 {
		wcfg.Scale = *scale
	}
	opts := geoblock.Options{World: &wcfg, Ctx: ctx, Metrics: reg, Store: store, Trace: tracer}
	if *verbose {
		opts.Log = func(format string, args ...any) {
			log.Printf(format, args...)
		}
	}

	// -fabric: become the coordinator of a distributed study.
	var coord *geoblock.FabricCoordinator
	if *fabricAddr != "" {
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
		return "geoscan: " + scanner.ProgressLine(reg)
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
	case "lumscan":
		domains, err := probeDomains(sys, *domainsFlag)
		if err != nil {
			if store != nil {
				store.Close()
			}
			fmt.Fprintf(os.Stderr, "geoscan: %v (seed %d, scale %.2f)\n", err, *seed, *scale)
			os.Exit(2)
		}
		var headers map[string]string
		if *zgrab {
			headers = scanner.ZGrabHeaders()
		}
		countries := probeCountries(*countriesFlag)
		fmt.Printf("%-28s %-4s %-3s %-8s %-6s %-16s %s\n",
			"DOMAIN", "CC", "N", "STATUS", "BYTES", "EXIT", "PAGE")
		sys.Probe(domains, countries, *samples, headers,
			&probeSink{domains: domains, countries: countries, cls: fingerprint.NewClassifier(), showErrors: *showErrors})
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

// probeDomains resolves -domains against the world: "all" is the whole
// Top-10K population, anything else a comma-separated list whose every
// name must exist.
func probeDomains(sys *geoblock.System, list string) ([]string, error) {
	var domains []string
	if list == "all" {
		for _, d := range sys.World.Top10K() {
			domains = append(domains, d.Name)
		}
		return domains, nil
	}
	for _, d := range strings.Split(list, ",") {
		d = strings.TrimSpace(d)
		if d == "" {
			continue
		}
		if _, ok := sys.World.Lookup(d); !ok {
			return nil, fmt.Errorf("%s does not exist in this world", d)
		}
		domains = append(domains, d)
	}
	return domains, nil
}

// probeCountries parses -countries: comma-separated codes, upper-cased.
func probeCountries(list string) []geoblock.CountryCode {
	var countries []geoblock.CountryCode
	for _, c := range strings.Split(list, ",") {
		c = strings.TrimSpace(strings.ToUpper(c))
		if c != "" {
			countries = append(countries, geoblock.CountryCode(c))
		}
	}
	return countries
}

// probeSink prints the Lumscan probe's output: one line per sample to
// stdout (failed samples only under -errors), and the degradation
// accounting — per-country outages and the attained-vs-requested
// coverage line — to stderr, where it survives piping the sample stream
// elsewhere.
type probeSink struct {
	domains    []string
	countries  []geoblock.CountryCode
	cls        *fingerprint.Classifier
	showErrors bool
}

func (p *probeSink) Emit(s scanner.Sample) {
	domain, cc := p.domains[s.Domain], p.countries[s.Country]
	if !s.OK() {
		if p.showErrors {
			fmt.Printf("%-28s %-4s %-3d %-8s %-6s %-16s -\n",
				domain, cc, s.Attempt, "ERR", "-", s.Err)
		}
		return
	}
	page := "-"
	if s.Body != "" {
		if k := p.cls.Classify(s.Body); k != 0 {
			page = k.String()
		}
	}
	fmt.Printf("%-28s %-4s %-3d %-8d %-6d %-16s %s\n",
		domain, cc, s.Attempt, s.Status, s.BodyLen, s.ExitIP, page)
}

func (p *probeSink) EmitOutage(o scanner.Outage) {
	fmt.Fprintf(os.Stderr, "geoscan: outage %s (%s): %d/%d shards, %d tasks lost\n",
		o.Country, o.Reason, o.Shards, o.ShardsTotal, o.Tasks)
}

func (p *probeSink) EmitCoverage(cov scanner.Coverage) {
	if cov.Full() {
		return
	}
	lost := "none fully"
	if len(cov.Lost) > 0 {
		codes := make([]string, len(cov.Lost))
		for i, cc := range cov.Lost {
			codes[i] = string(cc)
		}
		lost = strings.Join(codes, ",")
	}
	fmt.Fprintf(os.Stderr, "geoscan: coverage %d/%d countries attained (%d tasks lost; lost: %s)\n",
		cov.Attained, cov.Requested, cov.TasksLost, lost)
}
