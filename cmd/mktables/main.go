// Command mktables regenerates every table and figure of the paper's
// evaluation and writes them under an output directory — text tables,
// CSV series, and a combined report. This is the reproduction harness
// behind EXPERIMENTS.md.
//
//	mktables -scale 1.0 -out out/
//
// At -scale 1.0 the run performs the full paper-scale studies (several
// million simulated HTTP requests) and takes about a minute.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"

	"geoblock"
	"geoblock/internal/analysis"
	"geoblock/internal/papertables"
	"geoblock/internal/pipeline"
	"geoblock/internal/report"
	"geoblock/internal/stats"
)

func main() {
	scale := flag.Float64("scale", 1.0, "population scale in (0,1]; 1.0 = paper scale")
	seed := flag.Uint64("seed", 403, "world seed")
	outDir := flag.String("out", "out", "output directory")
	stamp := flag.String("stamp", "", "timestamp to record in the report header (injected, e.g. $(date -u +%Y-%m-%dT%H:%M:%SZ)); empty omits it")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	combined, err := os.Create(filepath.Join(*outDir, "report.txt"))
	if err != nil {
		log.Fatal(err)
	}
	defer combined.Close()
	out := io.MultiWriter(os.Stdout, combined)

	// No wall clock in here (the determinism gate enforces it): the
	// report is a pure function of (seed, scale), so identical inputs
	// must produce byte-identical report files. A run timestamp, when
	// wanted, is injected via -stamp rather than read from the clock.
	sys := geoblock.New(geoblock.Options{
		Seed: *seed, Scale: *scale,
		Log: func(format string, args ...any) { log.Printf(format, args...) },
	})
	if *stamp != "" {
		fmt.Fprintf(out, "geoblock reproduction — seed %d, scale %.2f, run %s\n\n", *seed, *scale, *stamp)
	} else {
		fmt.Fprintf(out, "geoblock reproduction — seed %d, scale %.2f\n\n", *seed, *scale)
	}

	// §3.1 exploration.
	explore := sys.RunExploration()
	papertables.PrintExploration(out, explore)

	// §4: the Top-10K study → Tables 1–6, Figures 1–4.
	r10 := sys.RunTop10K(geoblock.Top10KConfig{})
	papertables.FindingsSummary(out, r10)
	papertables.PrintTable1(out, analysis.BuildTable1(r10))
	papertables.PrintClusterSummaries(out, r10.ClusterSummaries(), 15)
	rows2, total2 := analysis.BuildTable2(r10)
	papertables.PrintTable2(out, rows2, total2)
	writeTableCSV(*outDir, "table2.csv", []string{"page", "recalled", "actual"}, func() [][]string {
		var rows [][]string
		for _, r := range rows2 {
			rows = append(rows, []string{r.Kind.String(), report.Itoa(r.Recalled), report.Itoa(r.Actual)})
		}
		return rows
	}())
	papertables.PrintTable3(out, analysis.BuildTable3(sys.World, r10.Findings))
	papertables.PrintCategoryRates(out, "Table 4: Geoblocked sites by category (Top 10K)",
		analysis.BuildCategoryRates(sys.World, analysis.RespondingDomains(r10.Initial), r10.Findings))
	papertables.PrintTable5(out, sys.World.Geo, analysis.BuildTable5(sys.World, r10.Findings))
	t6 := analysis.BuildCountryCDNTable(r10.Findings)
	papertables.PrintCountryCDN(out, "Table 6: Geoblocking among Top 10K sites, by country",
		sys.World.Geo, t6, 10)
	writeTableCSV(*outDir, "table6.csv", []string{"country", "total"}, countryRows(t6))
	papertables.PrintProviderRates(out, "Per-provider geoblock rates (§4.2.1)",
		analysis.BuildProviderRates(papertables.ProviderCountsFromWorld(sys.World), r10.Findings))
	fmt.Fprintf(out, "Median geoblocked domains per country: %.1f (paper: 3)\n\n",
		analysis.MedianBlockedPerCountry(r10.Findings, r10.Countries))

	es := analysis.BuildErrorStats(r10.Initial)
	// The lowest response rate; of tied countries, the first by code.
	codes := make([]geoblock.CountryCode, 0, len(es.CountryResponseRates))
	for cc := range es.CountryResponseRates {
		codes = append(codes, cc)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	worst, worstRate := geoblock.CountryCode(""), 1.0
	for _, cc := range codes {
		if rate := es.CountryResponseRates[cc]; rate < worstRate {
			worst, worstRate = cc, rate
		}
	}
	fmt.Fprintf(out, "Scan reliability (§4.1.1): 90%% of domains saw ≤%.1f%% errors (paper: 11.7%%); worst country response rate %s at %.1f%% (paper: Comoros, 76.4%%)\n\n",
		100*es.P90DomainErrorRate, sys.World.Geo.Name(worst), 100*worstRate)

	exp := sys.RunConsistencyExperiment(r10, 100, 500, nil)
	f1 := analysis.BuildFigure1(exp)
	papertables.PrintFigure(out, "Figure 1: Consistency for various sample rates (CDF)", f1)
	fmt.Fprintf(out, "At 20 samples, %.1f%% of pairs fall below the 80%% threshold (paper: 3.9%%)\n\n",
		100*exp.FractionBelow(20, 0.8))
	writeCSV(*outDir, "figure1.csv", f1)

	f2 := analysis.BuildFigure2(r10)
	papertables.PrintFigure2(out, f2)

	f3 := analysis.BuildFigure3(exp)
	papertables.PrintFigure(out, "Figure 3: False negative rate vs sample size", []stats.Series{f3})
	fmt.Fprintf(out, "At 3 samples, %.1f%% of known geoblocking pairs would be missed (paper: 1.7%%)\n\n",
		100*exp.MeanFalseNegative(3))
	writeCSV(*outDir, "figure3.csv", []stats.Series{f3})

	f4 := analysis.BuildFigure4(r10)
	papertables.PrintFigure(out, "Figure 4: Consistency of geoblocking observations (CDF)", []stats.Series{f4})
	writeCSV(*outDir, "figure4.csv", []stats.Series{f4})

	// §7.3 extensions over the §4 snapshot: timeout geoblocking,
	// application-layer discrimination, region granularity.
	papertables.PrintTimeouts(out, sys.AnalyzeTimeouts(r10, 10))
	papertables.PrintAppLayer(out, sys.RunAppLayerStudy(analysis.RespondingDomains(r10.Initial), "US", pipeline.AppLayerTargets()))
	papertables.PrintRegional(out, sys.RunRegionalAnalysis(r10.RegionalCandidates(), 12))

	// §5: the Top-1M study → Tables 7, 8 and the non-explicit analysis.
	r1m := sys.RunTop1M(geoblock.Top1MConfig{})
	fmt.Fprintf(out, "Top 1M: %d customers discovered (%d dual), %d eligible, %d sampled, %d explicit findings, %d GAE pairs hidden by censorship\n\n",
		r1m.Discovered.Total(), r1m.DualCount, r1m.EligibleCount, len(r1m.TestDomains),
		len(r1m.ExplicitFindings), r1m.CensoredGAEPairs)
	t7 := analysis.BuildCountryCDNTable(r1m.ExplicitFindings)
	papertables.PrintCountryCDN(out, "Table 7: Geoblocking among Top 1M sites, by country",
		sys.World.Geo, t7, 10)
	writeTableCSV(*outDir, "table7.csv", []string{"country", "total"}, countryRows(t7))
	papertables.PrintCategoryRates(out, "Table 8: Geoblocked sites by top category (Top 1M)",
		analysis.BuildCategoryRates(sys.World, analysis.RespondingDomains(r1m.Initial), r1m.ExplicitFindings))
	papertables.PrintProviderRates(out, "Per-provider geoblock rates (§5.2.1)",
		analysis.BuildProviderRates(r1m.TestedPerProvider, r1m.ExplicitFindings))
	papertables.PrintNonExplicit(out, r1m)

	// §6: Cloudflare validation → Table 9, Figure 5.
	ds := sys.CloudflareRulesSnapshot()
	papertables.PrintCloudflareTable9(out, sys.World.Geo, ds)
	f5 := analysis.BuildFigure5(ds)
	papertables.PrintFigure(out, "Figure 5: Enterprise geoblock-rule activation over time", f5)
	writeCSV(*outDir, "figure5.csv", f5)

	// §7.1: OONI confound.
	corpus := sys.SynthesizeOONI(2)
	papertables.PrintOONI(out, sys.AnalyzeOONI(corpus))

	fmt.Fprintln(out, "done")
}

func countryRows(rows []analysis.CountryCDNRow) [][]string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{string(r.Country), report.Itoa(r.Total)})
	}
	return out
}

func writeTableCSV(dir, name string, headers []string, rows [][]string) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := report.CSV(f, headers, rows); err != nil {
		log.Fatal(err)
	}
}

func writeCSV(dir, name string, series []stats.Series) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := report.SeriesCSV(f, series); err != nil {
		log.Fatal(err)
	}
}
