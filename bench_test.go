// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md's experiment index), plus ablation
// benches for the methodology choices §4.1.5 discusses and
// micro-benchmarks for the hot paths.
//
// Table/figure benches share one study run (the expensive part) and
// measure the analysis that regenerates the artifact, reporting the
// headline statistic via b.ReportMetric so `go test -bench=.` doubles
// as a shape check. cmd/mktables produces the full paper-scale
// artifacts; see EXPERIMENTS.md for recorded paper-vs-measured values.
package geoblock

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"geoblock/internal/analysis"
	"geoblock/internal/blockpage"
	"geoblock/internal/cdn"
	"geoblock/internal/cfrules"
	"geoblock/internal/cluster"
	"geoblock/internal/fingerprint"
	"geoblock/internal/geo"
	"geoblock/internal/ooni"
	"geoblock/internal/outlier"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/textfeat"
	"geoblock/internal/worldgen"
)

// benchScale keeps per-iteration study costs tractable; the shared
// fixture uses a slightly larger world for stabler shapes.
const benchScale = 0.05

var (
	benchOnce sync.Once
	benchSys  *System
	bench10K  *Top10KResult
	bench1M   *Top1MResult
	benchExp  *ConsistencyExperiment
)

func fixture(b *testing.B) (*System, *Top10KResult, *Top1MResult, *ConsistencyExperiment) {
	b.Helper()
	benchOnce.Do(func() {
		benchSys = New(Options{Scale: benchScale})
		bench10K = benchSys.RunTop10K(Top10KConfig{})
		bench1M = benchSys.RunTop1M(Top1MConfig{})
		benchExp = benchSys.RunConsistencyExperiment(bench10K, 100, 500, []int{1, 2, 3, 5, 10, 20})
	})
	return benchSys, bench10K, bench1M, benchExp
}

// --- Tables -------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	_, r10, _, _ := fixture(b)
	var t1 analysis.Table1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 = analysis.BuildTable1(r10)
	}
	b.ReportMetric(float64(t1.SafeDomains)/float64(t1.InitialDomains), "safe-fraction")
	b.ReportMetric(float64(t1.Clusters), "clusters")
	b.ReportMetric(float64(t1.DiscoveredProviders), "providers")
}

func BenchmarkTable2(b *testing.B) {
	_, r10, _, _ := fixture(b)
	var total analysis.Table2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, total = analysis.BuildTable2(r10)
	}
	b.ReportMetric(total.Recall(), "overall-recall") // paper: 0.583
}

func BenchmarkTable3(b *testing.B) {
	sys, r10, _, _ := fixture(b)
	var rows []analysis.CategoryCDNRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.BuildTable3(sys.World, r10.Findings)
	}
	b.ReportMetric(float64(len(rows)), "categories")
}

func BenchmarkTable4(b *testing.B) {
	sys, r10, _, _ := fixture(b)
	tested := analysis.RespondingDomains(r10.Initial)
	var rows []analysis.CategoryRateRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.BuildCategoryRates(sys.World, tested, r10.Findings)
	}
	var t, g int
	for _, row := range rows {
		t += row.Tested
		g += row.Geoblocked
	}
	b.ReportMetric(float64(g)/float64(t), "geoblocked-fraction") // paper: 0.016
}

func BenchmarkTable5(b *testing.B) {
	sys, r10, _, _ := fixture(b)
	var t5 analysis.Table5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t5 = analysis.BuildTable5(sys.World, r10.Findings)
	}
	if len(t5.Countries) > 0 {
		b.ReportMetric(float64(t5.Countries[0].Count), "top-country-instances")
	}
}

func BenchmarkTable6(b *testing.B) {
	_, r10, _, _ := fixture(b)
	var rows []analysis.CountryCDNRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.BuildCountryCDNTable(r10.Findings)
	}
	b.ReportMetric(sanctionedShare(rows), "sanctioned-share") // paper: 270/596 ≈ 0.45 in the top rows
}

func BenchmarkTable7(b *testing.B) {
	_, _, r1m, _ := fixture(b)
	var rows []analysis.CountryCDNRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.BuildCountryCDNTable(r1m.ExplicitFindings)
	}
	b.ReportMetric(sanctionedShare(rows), "sanctioned-share") // paper: 680/1565 ≈ 0.43
}

func sanctionedShare(rows []analysis.CountryCDNRow) float64 {
	total, sanc := 0, 0
	for _, r := range rows {
		total += r.Total
		switch r.Country {
		case "IR", "SY", "SD", "CU":
			sanc += r.Total
		}
	}
	if total == 0 {
		return 0
	}
	return float64(sanc) / float64(total)
}

func BenchmarkTable8(b *testing.B) {
	sys, _, r1m, _ := fixture(b)
	tested := analysis.RespondingDomains(r1m.Initial)
	var rows []analysis.CategoryRateRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = analysis.BuildCategoryRates(sys.World, tested, r1m.ExplicitFindings)
	}
	var t, g int
	for _, row := range rows {
		t += row.Tested
		g += row.Geoblocked
	}
	b.ReportMetric(float64(g)/float64(t), "geoblocked-fraction") // paper: 0.044
}

func BenchmarkTable9(b *testing.B) {
	var ds *cfrules.Dataset
	for i := 0; i < b.N; i++ {
		ds = cfrules.Synthesize(403, 0.05)
	}
	baseline, _ := ds.Table9(ds.TopBlockedCountries(16))
	b.ReportMetric(baseline.PerTier[cfrules.Enterprise], "enterprise-baseline") // paper: 0.3707
	b.ReportMetric(baseline.All, "all-baseline")                                // paper: 0.0193
}

// --- Figures ------------------------------------------------------------

func BenchmarkFigure1(b *testing.B) {
	_, _, _, exp := fixture(b)
	var series []stats.Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = analysis.BuildFigure1(exp)
	}
	_ = series
	b.ReportMetric(exp.FractionBelow(20, 0.8), "below-80pct-at-20") // paper: 0.039
}

func BenchmarkFigure2(b *testing.B) {
	_, r10, _, _ := fixture(b)
	var f2 analysis.Figure2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f2 = analysis.BuildFigure2(r10)
	}
	b.ReportMetric(float64(f2.Blocked.Total())/float64(f2.All.Total()+1), "blocked-fraction")
}

func BenchmarkFigure3(b *testing.B) {
	_, _, _, exp := fixture(b)
	var s stats.Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = analysis.BuildFigure3(exp)
	}
	_ = s
	b.ReportMetric(exp.MeanFalseNegative(3), "false-neg-at-3") // paper: 0.017
}

func BenchmarkFigure4(b *testing.B) {
	_, r10, _, _ := fixture(b)
	var s stats.Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = analysis.BuildFigure4(r10)
	}
	_ = s
	eliminated := float64(r10.Eliminated) / float64(len(r10.AgreementRates)+1)
	b.ReportMetric(eliminated, "eliminated-fraction") // paper: 0.114
}

func BenchmarkFigure5(b *testing.B) {
	ds := cfrules.Synthesize(403, 0.05)
	var series []stats.Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = analysis.BuildFigure5(ds)
	}
	last := series[0].Points[len(series[0].Points)-1].Y // KP at the snapshot
	b.ReportMetric(last, "kp-enterprise-rules")
}

// --- Study-level benches ------------------------------------------------

func BenchmarkExploration(b *testing.B) {
	// §3.1 exploration per iteration on a small world.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := New(Options{Scale: 0.02, Seed: uint64(100 + i)})
		b.StartTimer()
		r := sys.RunExploration()
		if i == 0 {
			fp := float64(r.FalsePositives) / float64(max(r.PairsBlockpage, 1))
			b.ReportMetric(fp, "false-positive-rate") // paper: 0.27
		}
	}
}

func BenchmarkTop10KStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := New(Options{Scale: 0.02, Seed: uint64(200 + i)})
		b.StartTimer()
		r := sys.RunTop10K(Top10KConfig{})
		if i == 0 {
			b.ReportMetric(float64(len(r.Findings)), "instances")
		}
	}
}

func BenchmarkNonExplicit(b *testing.B) {
	_, _, r1m, _ := fixture(b)
	// Measure the consistency scoring over the §5.2.2 data.
	scores := append(r1m.ConsistencyScores[blockpage.Akamai], r1m.ConsistencyScores[blockpage.Incapsula]...)
	perfect := 0
	for _, s := range scores {
		if s == 1.0 {
			perfect++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.BuildCountryCDNTable(r1m.ExplicitFindings)
	}
	if len(scores) > 0 {
		// Paper: only 13.9%/15.9% of Akamai/Incapsula domains are
		// perfectly consistent (vs ~85% for explicit geoblockers).
		b.ReportMetric(float64(perfect)/float64(len(scores)), "perfect-consistency-fraction")
	}
}

func BenchmarkOONI(b *testing.B) {
	sys, _, _, _ := fixture(b)
	var a *ooni.Analysis
	for i := 0; i < b.N; i++ {
		corpus := ooni.Synthesize(sys.World, ooni.Config{MeasurementsPerPair: 1})
		a = ooni.Analyze(sys.World, corpus)
	}
	b.ReportMetric(float64(a.GeoblockDomains)/float64(max(a.TestListSize, 1)), "list-fraction-geoblocking") // paper: 0.09
}

// --- Ablations (DESIGN.md §4) --------------------------------------------

// BenchmarkAblationRawLength compares the paper's percentage cutoff
// against the raw byte-difference variant it rejects (§4.1.5).
func BenchmarkAblationRawLength(b *testing.B) {
	_, r10, _, _ := fixture(b)
	cls := fingerprint.NewClassifier()

	type obs struct {
		domain int32
		length int
		block  bool
	}
	var observations []obs
	repSet := map[int16]bool{}
	for i, cc := range r10.Countries {
		for _, rc := range r10.RepCountries {
			if cc == rc {
				repSet[int16(i)] = true
			}
		}
	}
	for i := range r10.Initial.Samples {
		sm := &r10.Initial.Samples[i]
		if !repSet[sm.Country] || !sm.OK() || sm.Body == "" {
			continue
		}
		k := cls.Classify(sm.Body)
		if k == blockpage.KindNone || k == blockpage.Censorship {
			continue
		}
		observations = append(observations, obs{sm.Domain, int(sm.BodyLen), true})
	}

	var pctRecall, rawRecall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pctHit, rawHit int
		for _, o := range observations {
			if r10.Rep.IsOutlier(o.domain, o.length, outlier.DefaultCutoff) {
				pctHit++
			}
			if r10.Rep.IsOutlierRaw(o.domain, o.length, 2000) {
				rawHit++
			}
		}
		n := float64(max(len(observations), 1))
		pctRecall = float64(pctHit) / n
		rawRecall = float64(rawHit) / n
	}
	b.ReportMetric(pctRecall, "pct-cutoff-recall")
	b.ReportMetric(rawRecall, "raw-cutoff-recall")
}

// BenchmarkAblationCutoffSweep sweeps the length cutoff (§4.1.5: "the
// selection of length cutoff is relatively arbitrary between 5% and
// 50%").
func BenchmarkAblationCutoffSweep(b *testing.B) {
	_, r10, _, _ := fixture(b)
	cutoffs := []float64{0.05, 0.30, 0.50, 0.80}
	counts := make([]int, len(cutoffs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := range counts {
			counts[ci] = 0
		}
		for _, d := range r10.DiffsAll {
			for ci, cut := range cutoffs {
				if d > cut {
					counts[ci]++
				}
			}
		}
	}
	for ci, cut := range cutoffs {
		b.ReportMetric(float64(counts[ci]), "outliers-at-"+itoa(int(cut*100)))
	}
}

// BenchmarkAblationThreshold sweeps the agreement threshold (paper:
// 11.4% of candidate pairs eliminated at 80%).
func BenchmarkAblationThreshold(b *testing.B) {
	_, r10, _, _ := fixture(b)
	thresholds := []float64{0.5, 0.8, 0.95, 1.0}
	eliminated := make([]int, len(thresholds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ti := range eliminated {
			eliminated[ti] = 0
		}
		for _, rate := range r10.AgreementRates {
			for ti, th := range thresholds {
				if rate < th {
					eliminated[ti]++
				}
			}
		}
	}
	n := float64(max(len(r10.AgreementRates), 1))
	for ti, th := range thresholds {
		b.ReportMetric(float64(eliminated[ti])/n, "eliminated-at-"+itoa(int(th*100)))
	}
}

// BenchmarkAblationSampleSize reruns the Figure 3 readout: the false-
// negative cost of small initial snapshots.
func BenchmarkAblationSampleSize(b *testing.B) {
	_, _, _, exp := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range exp.SampleSizes {
			_ = exp.MeanFalseNegative(k)
		}
	}
	b.ReportMetric(exp.MeanFalseNegative(1), "false-neg-at-1")
	b.ReportMetric(exp.MeanFalseNegative(3), "false-neg-at-3")
	b.ReportMetric(exp.MeanFalseNegative(20), "false-neg-at-20")
}

// BenchmarkAblationLinkage compares single-link against complete-link
// clustering on a block-page corpus.
func BenchmarkAblationLinkage(b *testing.B) {
	docs, labels := benchCorpus(140)
	_, vecs := textfeat.FitTransform(docs)
	opts := cluster.DefaultOptions()
	var singleN, completeN int
	var singleP, completeP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		single := cluster.SingleLink(docs, vecs, opts)
		complete := cluster.CompleteLink(docs, vecs, opts)
		singleN, completeN = len(single), len(complete)
		singleP, completeP = cluster.Purity(single, labels), cluster.Purity(complete, labels)
	}
	b.ReportMetric(float64(singleN), "single-link-clusters")
	b.ReportMetric(float64(completeN), "complete-link-clusters")
	b.ReportMetric(singleP, "single-link-purity")
	b.ReportMetric(completeP, "complete-link-purity")
}

// BenchmarkAblationHeaders measures the §7.3 suggestion: full browser
// headers vs a bare UA on VPS probes (false-positive suppression).
func BenchmarkAblationHeaders(b *testing.B) {
	sys := New(Options{Scale: 0.05, Seed: 77})
	var cfg worldgen.Config = sys.World.Cfg
	_ = cfg
	fleet := proxy.VPSFleet(sys.World, []geo.CountryCode{"US", "IR"})
	var domains []string
	for _, d := range sys.World.Top10K() {
		if d.FrontedBy(worldgen.Akamai) && !d.Unreachable {
			domains = append(domains, d.Name)
		}
	}
	count403 := func(headers map[string]string, phase string) int {
		res, err := scanner.ScanVPS(context.Background(), fleet, domains, scanner.Config{Samples: 1, Headers: headers, Phase: phase})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for i := range res.Samples {
			if res.Samples[i].Status == 403 {
				n++
			}
		}
		return n
	}
	var bare, full int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bare = count403(scanner.ZGrabHeaders(), "ablate-bare")
		full = count403(scanner.BrowserHeaders(), "ablate-full")
	}
	b.ReportMetric(float64(bare), "bare-ua-403s")
	b.ReportMetric(float64(full), "browser-headers-403s")
}

// BenchmarkAblationRepCountries compares the top-20-country
// representative trick against using every country (§4.1.2's volume
// reduction).
func BenchmarkAblationRepCountries(b *testing.B) {
	_, r10, _, _ := fixture(b)
	b.ResetTimer()
	var top20, all int
	for i := 0; i < b.N; i++ {
		repAll := outlier.NewRepresentative()
		for j := range r10.Initial.Samples {
			sm := &r10.Initial.Samples[j]
			if sm.OK() && sm.BodyLen > 0 {
				repAll.Observe(sm.Domain, int(sm.BodyLen))
			}
		}
		top20, all = r10.RepSampleCount, 0
		for j := range r10.Initial.Samples {
			sm := &r10.Initial.Samples[j]
			if sm.OK() && sm.BodyLen > 0 {
				all++
			}
		}
	}
	b.ReportMetric(float64(top20), "top20-samples")
	b.ReportMetric(float64(all), "all-samples")
}

// --- §7.3 extension benches -----------------------------------------------

func BenchmarkExtensionTimeouts(b *testing.B) {
	sys, r10, _, _ := fixture(b)
	var res *TimeoutResult
	for i := 0; i < b.N; i++ {
		res = sys.AnalyzeTimeouts(r10, 8)
	}
	b.ReportMetric(float64(len(res.Findings)), "timeout-geoblockers")
}

func BenchmarkExtensionAppLayer(b *testing.B) {
	sys, r10, _, _ := fixture(b)
	domains := analysis.RespondingDomains(r10.Initial)
	if len(domains) > 120 {
		domains = domains[:120]
	}
	targets := []CountryCode{"IR", "SY", "CN", "RU", "BR"}
	var res *AppLayerResult
	for i := 0; i < b.N; i++ {
		res = sys.RunAppLayerStudy(domains, "US", targets)
	}
	b.ReportMetric(float64(len(res.Findings)), "discriminating-pairs")
}

func BenchmarkExtensionRegional(b *testing.B) {
	sys, r10, _, _ := fixture(b)
	seen := map[string]bool{}
	var domains []string
	for _, f := range r10.Candidates {
		if !seen[f.DomainName] {
			seen[f.DomainName] = true
			domains = append(domains, f.DomainName)
		}
	}
	var findings []RegionalFinding
	for i := 0; i < b.N; i++ {
		findings = sys.RunRegionalAnalysis(domains, 9)
	}
	b.ReportMetric(float64(len(findings)), "region-granular-domains")
}

// --- Micro-benchmarks on the hot paths -----------------------------------

func BenchmarkLumscanCountry(b *testing.B) {
	sys, _, _, _ := fixture(b)
	net := proxy.NewNetwork(sys.World)
	var domains []string
	for _, d := range sys.World.Top10K()[:50] {
		domains = append(domains, d.Name)
	}
	countries := []geo.CountryCode{"DE"}
	tasks := scanner.CrossProduct(len(domains), 1)
	cfg := scanner.DefaultConfig()
	cfg.Samples = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scanner.Scan(context.Background(), net, domains, countries, tasks, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Samples) != len(domains) {
			b.Fatal("wrong sample count")
		}
	}
	b.ReportMetric(float64(len(domains)), "requests/op")
}

func BenchmarkCDNServe(b *testing.B) {
	sys, _, _, _ := fixture(b)
	d := sys.World.Top10K()[0]
	ip, _ := sys.World.Geo.HostIP("FR", 1)
	h := make(http.Header)
	for k, v := range scanner.BrowserHeaders() {
		h.Set(k, v)
	}
	req := cdn.Request{
		Domain: d, Host: d.Name, Path: "/", Method: "GET", Scheme: "https",
		ClientIP: ip, Header: h,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.SampleSeed = uint64(i)
		resp := cdn.Serve(sys.World, req)
		if resp.BodyLen == 0 {
			b.Fatal("empty response")
		}
	}
}

func BenchmarkFingerprintClassify(b *testing.B) {
	cls := fingerprint.NewClassifier()
	bodies := make([]string, 0, len(blockpage.Kinds()))
	for _, k := range blockpage.Kinds() {
		bodies = append(bodies, blockpage.Render(k, blockpage.Vars{
			Domain: "bench.example.com", ClientIP: "10.0.0.1",
			CountryName: "Iran", RayID: "abcdef0123456789", Nonce: "12345678",
		}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cls.Classify(bodies[i%len(bodies)]) == blockpage.KindNone {
			b.Fatal("classification failed")
		}
	}
}

func BenchmarkTFIDFTransform(b *testing.B) {
	docs, _ := benchCorpus(60)
	v := textfeat.Fit(docs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Transform(docs[i%len(docs)])
	}
}

func BenchmarkSingleLink(b *testing.B) {
	docs, _ := benchCorpus(200)
	_, vecs := textfeat.FitTransform(docs)
	opts := cluster.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.SingleLink(docs, vecs, opts)
	}
}

func BenchmarkGeoLocate(b *testing.B) {
	db := geo.NewDB()
	ips := make([]geo.IP, 64)
	for i := range ips {
		ip, _ := db.HostIP("DE", uint64(i*977))
		ips[i] = ip
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Locate(ips[i%len(ips)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkOriginRender renders one origin page per iteration, in one
// allocation.
func BenchmarkOriginRender(b *testing.B) {
	site := blockpage.NewOriginSite("bench.example.com", stats.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := site.Render(uint64(i))
		if len(body) != site.Length(uint64(i)) {
			b.Fatal("length mismatch")
		}
	}
}

// BenchmarkBlockPages renders every block-page kind once per
// iteration: one allocation per kind but the field-free nginx page.
func BenchmarkBlockPages(b *testing.B) {
	v := blockpage.Vars{Domain: "bench.example.com", Path: "/", ClientIP: "203.0.113.9",
		CountryName: "Iran", RayID: "44bfa65f2a8c2b91", Nonce: "f3a9c1d0"}
	kinds := append(blockpage.Kinds(), blockpage.Censorship, blockpage.Legal451)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kinds {
			if len(blockpage.Render(k, v)) == 0 {
				b.Fatal("empty page")
			}
		}
	}
}

func BenchmarkOriginLength(b *testing.B) {
	site := blockpage.NewOriginSite("bench.example.com", stats.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = site.Length(uint64(i))
	}
}

// --- helpers --------------------------------------------------------------

func benchCorpus(n int) (docs []string, labels []string) {
	kinds := blockpage.Kinds()
	for i := 0; i < n; i++ {
		k := kinds[i%len(kinds)]
		docs = append(docs, blockpage.Render(k, blockpage.Vars{
			Domain:      "site" + itoa(i) + ".example",
			ClientIP:    "10.9.8.7",
			CountryName: []string{"Iran", "Syria", "Cuba"}[i%3],
			RayID:       itoa(i*2654435761) + "beef",
			Nonce:       itoa(i * 40503),
		}))
		labels = append(labels, k.String())
	}
	return docs, labels
}

func itoa(n int) string {
	if n < 0 {
		n = -n
	}
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationDendrogram builds the full single-link hierarchy
// over the outlier corpus and sweeps cut thresholds — the exploration
// the paper's analysts did before settling on a cut.
func BenchmarkAblationDendrogram(b *testing.B) {
	_, r10, _, _ := fixture(b)
	docs := make([]string, 0, len(r10.Outliers))
	for i := range r10.Outliers {
		docs = append(docs, r10.Outliers[i].Body)
	}
	if len(docs) > 400 {
		docs = docs[:400]
	}
	_, vecs := textfeat.FitTransform(docs)
	var d *cluster.Dendrogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = cluster.BuildDendrogram(docs, vecs, 8)
	}
	counts := d.ClusterCounts([]float64{0.6, 0.82, 0.95})
	b.ReportMetric(float64(counts[0]), "clusters-at-60")
	b.ReportMetric(float64(counts[1]), "clusters-at-82")
	b.ReportMetric(float64(counts[2]), "clusters-at-95")
}

// --- Scan engine benches (scheduler / session / fetch / sink) -------------

// scanBenchWorld builds a country-skewed workload: one country carries
// 10× the tasks of the rest — the shape that serialized the old
// one-worker-per-country engine.
func scanBenchWorld(b *testing.B) (*proxy.Network, []string, []geo.CountryCode, []scanner.Task) {
	b.Helper()
	sys := New(Options{Scale: benchScale, Seed: 403})
	net := proxy.NewNetwork(sys.World)
	var domains []string
	for _, d := range sys.World.Top10K()[:400] {
		domains = append(domains, d.Name)
	}
	countries := []geo.CountryCode{"US", "DE", "IR", "SY", "BR", "IN", "RU", "CN"}
	var tasks []scanner.Task
	for d := range domains {
		tasks = append(tasks, scanner.Task{Domain: int32(d), Country: 0})
	}
	for c := 1; c < len(countries); c++ {
		for d := 0; d < len(domains)/10; d++ {
			tasks = append(tasks, scanner.Task{Domain: int32(d), Country: int16(c)})
		}
	}
	return net, domains, countries, tasks
}

func scanBenchConfig() scanner.Config {
	cfg := scanner.DefaultConfig()
	cfg.Samples = 2
	cfg.Phase = "bench-engine"
	cfg.Concurrency = runtime.GOMAXPROCS(0)
	return cfg
}

// BenchmarkScanCollect materializes the full Result (bodies included),
// reporting throughput and allocation per sample.
func BenchmarkScanCollect(b *testing.B) {
	net, domains, countries, tasks := scanBenchWorld(b)
	cfg := scanBenchConfig()
	total := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scanner.Scan(context.Background(), net, domains, countries, tasks, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += len(res.Samples)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/sec")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(max(total, 1)), "alloc-bytes/sample")
}

// BenchmarkScanStreaming folds each sample through a counting sink and
// drops it — the Top-1M memory story. Compare alloc-bytes/sample with
// BenchmarkScanCollect for the streaming win.
func BenchmarkScanStreaming(b *testing.B) {
	net, domains, countries, tasks := scanBenchWorld(b)
	cfg := scanBenchConfig()
	total, blocks := 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := scanner.Run(context.Background(), net, domains, countries, tasks, cfg,
			scanner.SinkFunc(func(s scanner.Sample) {
				total++
				if s.OK() && s.Status == 403 {
					blocks++
				}
			}))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/sec")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(max(total, 1)), "alloc-bytes/sample")
}

// BenchmarkScanInstrumented reruns the streaming scan with a telemetry
// registry attached and reports the instrumentation cost against an
// uninstrumented run of the same workload in the same process, as the
// overhead-ratio metric. It is a reported figure, not an assertion.
// With -benchtime 400x on a 2-vCPU Xeon (go1.24) it read 1.24–1.33
// while the session and fetch layers called the registry per attempt,
// and 1.04–1.12 once each unit counted privately and was added to the
// registry once; fewer iterations swing too widely to compare.
// Resolving each hop's invariants once per task and per exit then
// halved the bare scan, and the same fixed cost read 1.09–1.23. Each
// attempt then read the registry's clock twice for a latency
// histogram; without those reads, 8 alternating runs read 1.024–1.135
// (median 1.082) against 1.125–1.182 (median 1.153) with them. What
// remains is adding each unit's metrics and the sink counters to the
// registry at the unit's emission.
func BenchmarkScanInstrumented(b *testing.B) {
	net, domains, countries, tasks := scanBenchWorld(b)
	sink := scanner.SinkFunc(func(scanner.Sample) {})
	run := func(reg *telemetry.Registry) time.Duration {
		cfg := scanBenchConfig()
		cfg.Metrics = reg
		start := time.Now() //geolint:allow determinism benchmarking wall time
		if err := scanner.Run(context.Background(), net, domains, countries, tasks, cfg, sink); err != nil {
			b.Fatal(err)
		}
		return time.Since(start) //geolint:allow determinism benchmarking wall time
	}
	run(nil) // warm the world's lazy caches off the clock
	var bare, instrumented time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bare += run(nil)
		instrumented += run(telemetry.New())
	}
	b.ReportMetric(bare.Seconds()/float64(b.N), "bare-sec/op")
	b.ReportMetric(instrumented.Seconds()/float64(b.N), "instrumented-sec/op")
	b.ReportMetric(instrumented.Seconds()/bare.Seconds(), "overhead-ratio")
}

// simRTT adds a fixed per-request delay in front of a transport,
// modeling the network-bound regime the real study ran in: the
// simulated world answers in microseconds, Luminati exits did not.
type simRTT struct {
	rt    http.RoundTripper
	delay time.Duration
}

func (t simRTT) RoundTrip(req *http.Request) (*http.Response, error) {
	time.Sleep(t.delay) //geolint:allow determinism benchmarking wall time
	return t.rt.RoundTrip(req)
}

// BenchmarkScanSkewedSharded pits the work-stealing scheduler against
// the old one-worker-per-country shape (recovered by making each
// country a single shard) on the skewed workload, under a simulated
// 200µs round-trip. With one shard per country the skewed country's
// request chain serializes behind that latency; sharding overlaps it.
// The speedup metric is the acceptance check for the scheduler
// refactor.
func BenchmarkScanSkewedSharded(b *testing.B) {
	net, domains, countries, tasks := scanBenchWorld(b)
	run := func(shardSize int) time.Duration {
		cfg := scanBenchConfig()
		cfg.ShardSize = shardSize
		cfg.Concurrency = 16
		cfg.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
			return simRTT{rt: rt, delay: 200 * time.Microsecond}
		}
		start := time.Now() //geolint:allow determinism benchmarking wall time
		res, err := scanner.Scan(context.Background(), net, domains, countries, tasks, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Samples) == 0 {
			b.Fatal("empty scan")
		}
		return time.Since(start) //geolint:allow determinism benchmarking wall time
	}
	run(0) // warm the world's lazy caches off the clock
	var sharded, monolithic time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monolithic += run(1 << 30) // one shard per country: the seed engine's shape
		sharded += run(0)          // default shard size: the skewed country fans out
	}
	b.ReportMetric(sharded.Seconds()/float64(b.N), "sharded-sec/op")
	b.ReportMetric(monolithic.Seconds()/float64(b.N), "monolithic-sec/op")
	b.ReportMetric(monolithic.Seconds()/sharded.Seconds(), "speedup")
}

// BenchmarkScanColdVsResume prices the journal's core promise: a cold
// run fetches everything while journaling it, and a resumed run over
// the finished journal replays the identical samples from disk with
// zero fetching. cold-sec/op is the journaling run (the fsync and
// encode overhead rides along), resume-sec/op is recovery plus replay,
// and replay-speedup is how much cheaper re-materializing a completed
// phase is than scanning it again.
func BenchmarkScanColdVsResume(b *testing.B) {
	net, domains, countries, tasks := scanBenchWorld(b)
	sink := scanner.SinkFunc(func(scanner.Sample) {})
	run := func(dir string) time.Duration {
		st, err := runstore.Open(dir, runstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		start := time.Now() //geolint:allow determinism benchmarking wall time
		err = st.Scan(runstore.Scan{
			Key:         "bench-engine",
			Fingerprint: 403,
			Cfg:         scanBenchConfig(),
			Sink:        sink,
			Run: func(cfg scanner.Config, s scanner.Sink) error {
				return scanner.Run(context.Background(), net, domains, countries, tasks, cfg, s)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(start) //geolint:allow determinism benchmarking wall time
	}
	run(b.TempDir()) // warm the world's lazy caches off the clock
	var cold, resume time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		cold += run(dir)   // fresh journal: fetch everything, journal it
		resume += run(dir) // finished journal: recover, replay, fetch nothing
	}
	b.ReportMetric(cold.Seconds()/float64(b.N), "cold-sec/op")
	b.ReportMetric(resume.Seconds()/float64(b.N), "resume-sec/op")
	b.ReportMetric(cold.Seconds()/resume.Seconds(), "replay-speedup")
}
