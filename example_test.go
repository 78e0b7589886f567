package geoblock_test

import (
	"fmt"
	"sort"

	"geoblock"
)

// A 5%-scale world scans in under a second and still shows the paper's
// shape: the sanctioned countries top the list of blocked countries.
func ExampleSystem_RunTop10K() {
	sys := geoblock.New(geoblock.Options{Scale: 0.05})
	res := sys.RunTop10K(geoblock.Top10KConfig{})
	fmt.Printf("%d domains from %d countries: %d confirmed geoblocking instances\n",
		len(res.SafeDomains), len(res.Countries), len(res.Findings))

	perCountry := map[geoblock.CountryCode]int{}
	for _, f := range res.Findings {
		perCountry[f.Country]++
	}
	countries := make([]geoblock.CountryCode, 0, len(perCountry))
	for cc := range perCountry {
		countries = append(countries, cc)
	}
	sort.Slice(countries, func(i, j int) bool {
		a, b := countries[i], countries[j]
		if perCountry[a] != perCountry[b] {
			return perCountry[a] > perCountry[b]
		}
		return a < b
	})
	for _, cc := range countries[:5] {
		fmt.Println(cc, perCountry[cc])
	}
	fmt.Printf("%d candidate pairs failed the %.0f%% agreement threshold\n",
		res.Eliminated, 100*res.Config.Threshold)
	// Output:
	// 391 domains from 177 countries: 54 confirmed geoblocking instances
	// SY 6
	// CU 5
	// IR 5
	// SD 3
	// AT 1
	// 27 candidate pairs failed the 80% agreement threshold
}

// Censorship-measurement data is polluted by geoblocking (§7.1): the
// synthesized corpus holds CDN geoblock pages that a censorship study
// without geoblocking fingerprints would misattribute.
func ExampleSystem_AnalyzeOONI() {
	sys := geoblock.New(geoblock.Options{Scale: 0.05})
	a := sys.AnalyzeOONI(sys.SynthesizeOONI(2))
	fmt.Printf("%d of %d measurements are geoblock pages:\n", a.GeoblockCases, a.TotalMeasurements)
	type kindCount struct {
		kind fmt.Stringer
		n    int
	}
	var kinds []kindCount
	for k, n := range a.CasesByKind {
		kinds = append(kinds, kindCount{k, n})
	}
	sort.Slice(kinds, func(i, j int) bool {
		if kinds[i].n != kinds[j].n {
			return kinds[i].n > kinds[j].n
		}
		return kinds[i].kind.String() < kinds[j].kind.String()
	})
	for _, k := range kinds {
		fmt.Printf("  %-12v %d\n", k.kind, k.n)
	}
	// Output:
	// 180 of 20178 measurements are geoblock pages:
	//   Cloudflare   168
	//   AppEngine    12
}

// The §6 firewall-rules snapshot was taken during the April–August
// 2018 regression that gave every Cloudflare account tier the
// Enterprise-only country block.
func ExampleSystem_CloudflareRulesSnapshot() {
	sys := geoblock.New(geoblock.Options{Scale: 0.05})
	ds := sys.CloudflareRulesSnapshot()
	fmt.Printf("%d non-Enterprise block rules activated during the regression window\n",
		ds.RegressionUptake())
	// Output:
	// 4942 non-Enterprise block rules activated during the regression window
}
