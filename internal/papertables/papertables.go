// Package papertables renders the analysis package's structured tables
// and figures in the paper's layout: one Print function per table and
// figure, shared by geoscan and mktables. PrintTop10K and PrintTop1M
// are geoscan's output for those studies, which the tables golden pins.
package papertables

import (
	"fmt"
	"io"
	"strings"

	"geoblock/internal/analysis"
	"geoblock/internal/blockpage"
	"geoblock/internal/cfrules"
	"geoblock/internal/geo"
	"geoblock/internal/ooni"
	"geoblock/internal/pipeline"
	"geoblock/internal/report"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// PrintTable1 renders the pipeline-overview table.
func PrintTable1(w io.Writer, t1 analysis.Table1) {
	report.Table(w, "Table 1: Overview of data at each step in Methods",
		[]string{"Initial Domains", "Safe Domains", "Sampled Pairs", "Clustered Pages", "Clusters", "Discovered CDNs/Hosts"},
		[][]string{{
			report.Itoa(t1.InitialDomains), report.Itoa(t1.SafeDomains),
			report.Itoa(t1.InitialSamples), report.Itoa(t1.ClusteredPages),
			report.Itoa(t1.Clusters), report.Itoa(t1.DiscoveredProviders),
		}})
}

// PrintTable2 renders the recall table.
func PrintTable2(w io.Writer, rows []analysis.Table2Row, total analysis.Table2Row) {
	out := make([][]string, 0, len(rows)+1)
	for _, r := range rows {
		out = append(out, []string{
			r.Kind.String(), report.Itoa(r.Recalled), report.Itoa(r.Actual),
			report.PctStr(r.Recall()),
		})
	}
	out = append(out, []string{"Total", report.Itoa(total.Recalled),
		report.Itoa(total.Actual), report.PctStr(total.Recall())})
	report.Table(w, "Table 2: Recall for block pages (30% length metric)",
		[]string{"Page", "Recalled", "Actual", "Recall"}, out)
}

// explicitKindColumns is the column order of Tables 3, 6 and 7.
var explicitKindColumns = []blockpage.Kind{
	blockpage.Cloudflare, blockpage.CloudFront, blockpage.AppEngine,
	blockpage.Baidu, blockpage.Airbnb,
}

// PrintTable3 renders the category × CDN table.
func PrintTable3(w io.Writer, rows []analysis.CategoryCDNRow) {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		row := []string{string(r.Category)}
		for _, k := range explicitKindColumns {
			row = append(row, report.Itoa(r.PerKind[k]))
		}
		row = append(row, report.Itoa(r.Total))
		out = append(out, row)
	}
	report.Table(w, "Table 3: Most geoblocked categories by CDN (unique domains)",
		[]string{"Category", "Cloudflare", "CloudFront", "AppEngine", "Baidu", "Airbnb", "Total"}, out)
}

// PrintCategoryRates renders Table 4 (Top 10K) or Table 8 (Top 1M).
func PrintCategoryRates(w io.Writer, title string, rows []analysis.CategoryRateRow) {
	out := make([][]string, 0, len(rows))
	var tested, blocked int
	for _, r := range rows {
		out = append(out, []string{
			string(r.Category), report.Itoa(r.Tested),
			fmt.Sprintf("%d (%s)", r.Geoblocked, report.PctStr(r.Rate())),
		})
		tested += r.Tested
		blocked += r.Geoblocked
	}
	out = append(out, []string{"Total", report.Itoa(tested),
		fmt.Sprintf("%d (%s)", blocked, report.PctStr(float64(blocked)/float64(max(tested, 1))))})
	report.Table(w, title, []string{"Category", "Tested", "Geoblocked"}, out)
}

// PrintTable5 renders the TLD and country rankings.
func PrintTable5(w io.Writer, db *geo.DB, t5 analysis.Table5) {
	n := max(len(t5.TLDs), len(t5.Countries))
	if n > 10 {
		n = 10
	}
	out := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		row := []string{"", "", "", ""}
		if i < len(t5.TLDs) {
			row[0], row[1] = t5.TLDs[i].Key, report.Itoa(t5.TLDs[i].Count)
		}
		if i < len(t5.Countries) {
			row[2] = db.Name(geo.CountryCode(t5.Countries[i].Key))
			row[3] = report.Itoa(t5.Countries[i].Count)
		}
		out = append(out, row)
	}
	report.Table(w, "Table 5: Top TLDs and geoblocked countries",
		[]string{"TLD", "Domains", "Country", "Instances"}, out)
}

// PrintCountryCDN renders Table 6 (Top 10K) or Table 7 (Top 1M).
func PrintCountryCDN(w io.Writer, title string, db *geo.DB, rows []analysis.CountryCDNRow, topN int) {
	if topN > 0 && len(rows) > topN {
		// Collapse the tail into an "Other" row, as the paper does.
		other := analysis.CountryCDNRow{Country: "--", PerKind: map[blockpage.Kind]int{}}
		for _, r := range rows[topN:] {
			for k, n := range r.PerKind {
				other.PerKind[k] += n
			}
			other.Total += r.Total
		}
		rows = append(append([]analysis.CountryCDNRow{}, rows[:topN]...), other)
	}
	out := make([][]string, 0, len(rows))
	totals := analysis.CountryCDNRow{PerKind: map[blockpage.Kind]int{}}
	for _, r := range rows {
		name := "Other"
		if r.Country != "--" {
			name = db.Name(r.Country)
		}
		row := []string{name}
		for _, k := range explicitKindColumns {
			row = append(row, report.Itoa(r.PerKind[k]))
			totals.PerKind[k] += r.PerKind[k]
		}
		row = append(row, report.Itoa(r.Total))
		totals.Total += r.Total
		out = append(out, row)
	}
	trow := []string{"Total"}
	for _, k := range explicitKindColumns {
		trow = append(trow, report.Itoa(totals.PerKind[k]))
	}
	trow = append(trow, report.Itoa(totals.Total))
	out = append(out, trow)
	report.Table(w, title,
		[]string{"Country", "Cloudflare", "CloudFront", "AppEngine", "Baidu", "Airbnb", "Total"}, out)
}

// PrintProviderRates renders the per-provider customer geoblock rates.
func PrintProviderRates(w io.Writer, title string, rates []analysis.ProviderRates) {
	out := make([][]string, 0, len(rates))
	for _, r := range rates {
		out = append(out, []string{
			string(r.Provider), report.Itoa(r.Tested),
			fmt.Sprintf("%d (%s)", r.Geoblocked, report.PctStr(r.Rate())),
		})
	}
	report.Table(w, title, []string{"Provider", "Customers", "Geoblocking"}, out)
}

// PrintCloudflareTable9 renders the §6 rule-rate table.
func PrintCloudflareTable9(w io.Writer, db *geo.DB, ds *cfrules.Dataset) {
	countries := ds.TopBlockedCountries(16)
	baseline, rows := ds.Table9(countries)

	pct := func(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }
	out := [][]string{{
		"Baseline", pct(baseline.All),
		pct(baseline.PerTier[cfrules.Enterprise]), pct(baseline.PerTier[cfrules.Business]),
		pct(baseline.PerTier[cfrules.Pro]), pct(baseline.PerTier[cfrules.Free]),
	}}
	for _, r := range rows {
		out = append(out, []string{
			db.Name(r.Country), pct(r.All),
			pct(r.PerTier[cfrules.Enterprise]), pct(r.PerTier[cfrules.Business]),
			pct(r.PerTier[cfrules.Pro]), pct(r.PerTier[cfrules.Free]),
		})
	}
	report.Table(w, "Table 9: Cloudflare geoblocking rules by account type",
		[]string{"Country", "All", "Enterprise", "Business", "Pro", "Free"}, out)
}

// PrintFigure renders a figure's series as an ASCII chart.
func PrintFigure(w io.Writer, title string, series []stats.Series) {
	report.Chart(w, title, series, 64, 14)
}

// PrintFigure2 renders the relative-size histograms.
func PrintFigure2(w io.Writer, f analysis.Figure2) {
	toSeries := func(name string, h *stats.Histogram) stats.Series {
		s := stats.Series{Name: name}
		for i, frac := range h.Fractions() {
			s.Points = append(s.Points, stats.Point{X: h.BinCenter(i), Y: frac})
		}
		return s
	}
	PrintFigure(w, "Figure 2: Relative sizes of block pages and representative pages",
		[]stats.Series{toSeries("all samples", f.All), toSeries("block pages", f.Blocked)})
}

// PrintOONI renders the §7.1 confound summary.
func PrintOONI(w io.Writer, a *ooni.Analysis) {
	report.Table(w, "OONI confound analysis (§7.1)",
		[]string{"Metric", "Value"},
		[][]string{
			{"Measurements", report.Itoa(a.TotalMeasurements)},
			{"Geoblock-page cases", report.Itoa(a.GeoblockCases)},
			{"Countries with cases", report.Itoa(a.GeoblockCountries)},
			{"Test-list domains affected", fmt.Sprintf("%d of %d (%s)",
				a.GeoblockDomains, a.TestListSize,
				report.PctStr(float64(a.GeoblockDomains)/float64(max(a.TestListSize, 1))))},
			{"Censoring countries with cases", report.Itoa(a.CensorCountriesWithCases)},
			{"Control (Tor) 403s, Akamai/CF sites", report.Itoa(a.ControlBlocked403)},
			{"Local-blocked, control OK", report.Itoa(a.LocalBlockedCtrlOK)},
			{"Anomalous measurements", report.Itoa(a.AnomalousAll)},
			{"Anomalies that are geoblocking", report.Itoa(a.AnomaliesActuallyGeo)},
		})
}

// PrintExploration renders the §3.1 exploration summary.
func PrintExploration(w io.Writer, r *pipeline.ExploreResult) {
	report.Table(w, "Exploration (§3.1): NS-detected customers probed from 16 VPSes",
		[]string{"Metric", "Value"},
		[][]string{
			{"NS-detected Cloudflare customers", report.Itoa(r.NSCloudflare)},
			{"NS-detected Akamai customers", report.Itoa(r.NSAkamai)},
			{"403s from Iran VPS", report.Itoa(r.Iran403)},
			{"403s from U.S. control", report.Itoa(r.US403)},
			{"Block-page pairs flagged", report.Itoa(r.PairsBlockpage)},
			{"Genuine after browser check", report.Itoa(r.GenuinePairs)},
			{"False positives (bot defense)", fmt.Sprintf("%d (%s)",
				r.FalsePositives,
				report.PctStr(float64(r.FalsePositives)/float64(max(r.PairsBlockpage, 1))))},
			{"Unique domains", report.Itoa(r.UniqueDomains)},
		})
}

// PrintNonExplicit renders the §5.2.2 summary.
func PrintNonExplicit(w io.Writer, r *pipeline.Top1MResult) {
	rows := [][]string{}
	for _, k := range []blockpage.Kind{blockpage.Akamai, blockpage.Incapsula} {
		findings := 0
		instances := 0
		for _, f := range r.NonExplicitFindings {
			if f.Kind == k {
				findings++
				instances += len(f.Blocked)
			}
		}
		rows = append(rows, []string{
			k.String(), report.Itoa(r.NonExplicitSeen[k]),
			report.Itoa(findings), report.Itoa(instances),
		})
	}
	report.Table(w, "Non-explicit geoblockers (§5.2.2, 100% consistency)",
		[]string{"CDN", "Domains w/ page", "Confirmed domains", "Instances"}, rows)
}

// FindingsSummary prints the headline numbers of a Top-10K run.
func FindingsSummary(w io.Writer, r *pipeline.Top10KResult) {
	unique := pipeline.UniqueDomains(r.Findings)
	countries := map[geo.CountryCode]bool{}
	for _, f := range r.Findings {
		countries[f.Country] = true
	}
	fmt.Fprintf(w, "Confirmed geoblocking: %d instances, %d unique domains, %d countries (%d pairs eliminated by the %.0f%% threshold)\n\n",
		len(r.Findings), unique, len(countries), r.Eliminated, 100*r.Config.Threshold)
}

// PrintTop10K renders a Top-10K run as geoscan prints it: the
// snapshot's coverage, the headline numbers, Tables 1–6, and the
// §4.2.1 per-provider rates.
func PrintTop10K(w io.Writer, world *worldgen.World, r *pipeline.Top10KResult) {
	PrintCoverage(w, "top10k initial snapshot", r.Initial.Outages, r.Initial.Coverage)
	FindingsSummary(w, r)
	PrintTable1(w, analysis.BuildTable1(r))
	rows, total := analysis.BuildTable2(r)
	PrintTable2(w, rows, total)
	PrintTable3(w, analysis.BuildTable3(world, r.Findings))
	PrintCategoryRates(w, "Table 4: Geoblocked sites by category (Top 10K)",
		analysis.BuildCategoryRates(world, analysis.RespondingDomains(r.Initial), r.Findings))
	PrintTable5(w, world.Geo, analysis.BuildTable5(world, r.Findings))
	PrintCountryCDN(w, "Table 6: Geoblocking among Top 10K sites, by country",
		world.Geo, analysis.BuildCountryCDNTable(r.Findings), 10)
	PrintProviderRates(w, "Per-provider geoblock rates (§4.2.1)",
		analysis.BuildProviderRates(ProviderCountsFromWorld(world), r.Findings))
}

// PrintTop1M renders a Top-1M run as geoscan prints it: the snapshot's
// coverage, the discovery summary, Tables 7 and 8, the §5.2.1
// per-provider rates, and the §5.2.2 non-explicit table.
func PrintTop1M(w io.Writer, world *worldgen.World, r *pipeline.Top1MResult) {
	PrintCoverage(w, "top1m snapshot", r.Initial.Outages, r.Initial.Coverage)
	fmt.Fprintf(w, "Top 1M: %d customers discovered, %d eligible, %d sampled, %d explicit findings\n\n",
		r.Discovered.Total(), r.EligibleCount, len(r.TestDomains), len(r.ExplicitFindings))
	PrintCountryCDN(w, "Table 7: Geoblocking among Top 1M sites, by country",
		world.Geo, analysis.BuildCountryCDNTable(r.ExplicitFindings), 10)
	PrintCategoryRates(w, "Table 8: Geoblocked sites by top category (Top 1M)",
		analysis.BuildCategoryRates(world, analysis.RespondingDomains(r.Initial), r.ExplicitFindings))
	PrintProviderRates(w, "Per-provider geoblock rates (§5.2.1)",
		analysis.BuildProviderRates(r.TestedPerProvider, r.ExplicitFindings))
	PrintNonExplicit(w, r)
}

// ProviderCountsFromWorld tallies each CDN's Top-10K customer counts —
// the denominators of §4.2.1.
func ProviderCountsFromWorld(w *worldgen.World) map[worldgen.Provider]int {
	out := map[worldgen.Provider]int{}
	for _, d := range w.Top10K() {
		for _, p := range d.Providers {
			if p.IsCDN() {
				out[p]++
			}
		}
	}
	return out
}

// PrintClusterSummaries renders the manual-examination view of the
// largest clusters.
func PrintClusterSummaries(w io.Writer, summaries []pipeline.ClusterSummary, topN int) {
	rows := make([][]string, 0, topN)
	for i, s := range summaries {
		if i >= topN {
			break
		}
		label := s.Kind.String()
		if s.Kind == 0 {
			label = "(not a block page)"
		}
		rows = append(rows, []string{
			report.Itoa(i + 1), report.Itoa(s.Size), label,
			s.ExampleDomain, report.Itoa(int(s.ExampleLen)),
		})
	}
	report.Table(w, fmt.Sprintf("Cluster examination (§4.1.3): top %d of %d clusters", min(topN, len(summaries)), len(summaries)),
		[]string{"#", "Pages", "Label", "Example domain", "Bytes"}, rows)
}

// PrintTimeouts renders the timeout-geoblocking extension results.
func PrintTimeouts(w io.Writer, r *pipeline.TimeoutResult) {
	rows := make([][]string, 0, len(r.Findings))
	for _, f := range r.Findings {
		cs := make([]string, len(f.Countries))
		for i, cc := range f.Countries {
			cs[i] = string(cc)
		}
		overlap := "none"
		if len(f.CensorOverlap) > 0 {
			os := make([]string, len(f.CensorOverlap))
			for i, cc := range f.CensorOverlap {
				os[i] = string(cc)
			}
			overlap = strings.Join(os, " ")
		}
		rows = append(rows, []string{f.DomainName, strings.Join(cs, " "), overlap})
	}
	report.Table(w, fmt.Sprintf("Extension: timeout geoblocking (§7.3) — %d candidate domains, %d pairs past the vantage cross-check, %d domains confirmed",
		r.CandidateDomains, r.CrossCheckedPairs, len(r.Findings)),
		[]string{"Domain", "Timeout-blocked in", "Censor overlap"}, rows)
}

// PrintAppLayer renders the application-layer discrimination results.
func PrintAppLayer(w io.Writer, r *pipeline.AppLayerResult) {
	rows := make([][]string, 0, len(r.Findings))
	for _, f := range r.Findings {
		what := ""
		if len(f.MissingLinks) > 0 {
			what = "features removed: " + strings.Join(f.MissingLinks, " ")
		}
		if f.NoticeAdded {
			if what != "" {
				what += "; "
			}
			what += "region notice"
		}
		if f.PriceRatio > 1.02 {
			if what != "" {
				what += "; "
			}
			what += fmt.Sprintf("price ×%.2f", f.PriceRatio)
		}
		rows = append(rows, []string{f.DomainName, string(f.Country), what})
	}
	report.Table(w, fmt.Sprintf("Extension: application-layer discrimination (§7.3) — %d domains tested",
		r.DomainsTested),
		[]string{"Domain", "Country", "Discrimination"}, rows)
}

// PrintRegional renders the region-granularity results.
func PrintRegional(w io.Writer, findings []pipeline.RegionalFinding) {
	rows := make([][]string, 0, len(findings))
	for _, f := range findings {
		rows = append(rows, []string{
			f.DomainName, f.Kind.String(),
			report.PctStr(f.RegionRate), report.PctStr(f.MainlandRate),
		})
	}
	report.Table(w, "Extension: region-granular blocking — Crimea vs mainland Ukraine (§4.2.2)",
		[]string{"Domain", "Page", "Crimea rate", "Mainland rate"}, rows)
}

// PrintCoverage renders a scan phase's degradation accounting: one row
// per country outage plus the attained-vs-requested coverage line. A
// run with full coverage prints a single confirmation line, so readers
// of a degraded report can tell the difference between "nothing lost"
// and "nobody checked".
func PrintCoverage(w io.Writer, phase string, outages []scanner.Outage, cov scanner.Coverage) {
	if len(outages) == 0 {
		fmt.Fprintf(w, "Coverage (%s): %d/%d countries, no outages\n\n", phase, cov.Attained, cov.Requested)
		return
	}
	rows := make([][]string, 0, len(outages))
	for _, o := range outages {
		extent := "partial"
		if o.Full() {
			extent = "full"
		}
		rows = append(rows, []string{
			string(o.Country), o.Reason.String(),
			fmt.Sprintf("%d/%d", o.Shards, o.ShardsTotal),
			report.Itoa(o.Tasks), extent,
		})
	}
	report.Table(w, fmt.Sprintf("Coverage (%s): %d/%d countries attained, %d tasks lost",
		phase, cov.Attained, cov.Requested, cov.TasksLost),
		[]string{"Country", "Reason", "Shards lost", "Tasks", "Extent"}, rows)
}
