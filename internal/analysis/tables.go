// Package analysis turns pipeline output into the paper's tables and
// figures: structured rows ready for rendering, one builder per
// table/figure of the evaluation (see DESIGN.md's experiment index).
package analysis

import (
	"sort"

	"geoblock/internal/blockpage"
	"geoblock/internal/category"
	"geoblock/internal/geo"
	"geoblock/internal/pipeline"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// Table1 is the pipeline-overview row: the data volume at each step of
// the discovery process.
type Table1 struct {
	InitialDomains      int
	SafeDomains         int
	InitialSamples      int // domain-country pairs sampled (paper: 1,416,531)
	ClusteredPages      int
	Clusters            int
	DiscoveredProviders int
}

// BuildTable1 summarizes the Top-10K discovery pipeline.
func BuildTable1(r *pipeline.Top10KResult) Table1 {
	return Table1{
		InitialDomains:      r.InitialCount,
		SafeDomains:         len(r.SafeDomains),
		InitialSamples:      len(r.SafeDomains) * len(r.Countries),
		ClusteredPages:      len(r.Outliers),
		Clusters:            len(r.Clusters),
		DiscoveredProviders: len(r.DiscoveredProviders()),
	}
}

// Table2Row is one line of the recall table.
type Table2Row struct {
	Kind     blockpage.Kind
	Recalled int
	Actual   int
}

// Recall returns the row's recall fraction.
func (r Table2Row) Recall() float64 {
	if r.Actual == 0 {
		return 0
	}
	return float64(r.Recalled) / float64(r.Actual)
}

// BuildTable2 assembles the length-heuristic recall table in the
// paper's row order, plus the totals row.
func BuildTable2(r *pipeline.Top10KResult) ([]Table2Row, Table2Row) {
	order := []blockpage.Kind{
		blockpage.Akamai, blockpage.Cloudflare, blockpage.AppEngine,
		blockpage.CloudflareCaptcha, blockpage.CloudflareJS,
		blockpage.CloudFront, blockpage.BaiduCaptcha, blockpage.Baidu,
		blockpage.Incapsula, blockpage.Soasta, blockpage.Airbnb,
		blockpage.DistilCaptcha, blockpage.Nginx, blockpage.Varnish,
	}
	var rows []Table2Row
	var total Table2Row
	for _, k := range order {
		row := Table2Row{Kind: k, Recalled: r.Recall[k].Recalled, Actual: r.Recall[k].Actual}
		rows = append(rows, row)
		total.Recalled += row.Recalled
		total.Actual += row.Actual
	}
	return rows, total
}

// CategoryCDNRow is one line of Table 3: unique geoblocked domains per
// category, split by CDN.
type CategoryCDNRow struct {
	Category category.Category
	PerKind  map[blockpage.Kind]int
	Total    int
}

// BuildTable3 counts unique geoblocked domains per (category, CDN).
func BuildTable3(w *worldgen.World, findings []pipeline.Finding) []CategoryCDNRow {
	type key struct {
		cat  category.Category
		kind blockpage.Kind
	}
	uniq := map[key]map[string]bool{}
	for _, f := range findings {
		d, ok := w.Lookup(f.DomainName)
		if !ok {
			continue
		}
		k := key{d.Category, f.Kind}
		if uniq[k] == nil {
			uniq[k] = map[string]bool{}
		}
		uniq[k][f.DomainName] = true
	}
	perCat := map[category.Category]*CategoryCDNRow{}
	for k, domains := range uniq {
		row := perCat[k.cat]
		if row == nil {
			row = &CategoryCDNRow{Category: k.cat, PerKind: map[blockpage.Kind]int{}}
			perCat[k.cat] = row
		}
		row.PerKind[k.kind] += len(domains)
		row.Total += len(domains)
	}
	rows := make([]CategoryCDNRow, 0, len(perCat))
	for _, row := range perCat {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Category < rows[j].Category
	})
	return rows
}

// CategoryRateRow is one line of Table 4 / Table 8: tested vs
// geoblocked domain counts per category.
type CategoryRateRow struct {
	Category   category.Category
	Tested     int
	Geoblocked int
}

// Rate returns the geoblocked fraction.
func (r CategoryRateRow) Rate() float64 {
	if r.Tested == 0 {
		return 0
	}
	return float64(r.Geoblocked) / float64(r.Tested)
}

// BuildCategoryRates computes tested/geoblocked per category for any
// study: testedNames is the probed population (responding domains);
// findings the confirmed instances.
func BuildCategoryRates(w *worldgen.World, testedNames []string, findings []pipeline.Finding) []CategoryRateRow {
	tested := map[category.Category]int{}
	for _, name := range testedNames {
		if d, ok := w.Lookup(name); ok {
			tested[d.Category]++
		}
	}
	blocked := map[category.Category]map[string]bool{}
	for _, f := range findings {
		d, ok := w.Lookup(f.DomainName)
		if !ok {
			continue
		}
		if blocked[d.Category] == nil {
			blocked[d.Category] = map[string]bool{}
		}
		blocked[d.Category][f.DomainName] = true
	}
	var rows []CategoryRateRow
	for cat, n := range tested {
		rows = append(rows, CategoryRateRow{Category: cat, Tested: n, Geoblocked: len(blocked[cat])})
	}
	sort.Slice(rows, func(i, j int) bool {
		ri, rj := rows[i].Rate(), rows[j].Rate()
		if ri != rj {
			return ri > rj
		}
		return rows[i].Category < rows[j].Category
	})
	return rows
}

// Table5 holds the TLD and country rankings of the Top-10K findings.
type Table5 struct {
	TLDs      []stats.KV // unique geoblocked domains per TLD
	Countries []stats.KV // geoblocking instances per country
}

// BuildTable5 ranks TLDs (by unique blocked domains) and countries (by
// instances).
func BuildTable5(w *worldgen.World, findings []pipeline.Finding) Table5 {
	tlds := stats.NewCounter()
	seenTLD := map[string]bool{}
	countries := stats.NewCounter()
	for _, f := range findings {
		countries.Inc(string(f.Country), 1)
		if !seenTLD[f.DomainName] {
			seenTLD[f.DomainName] = true
			if d, ok := w.Lookup(f.DomainName); ok {
				tlds.Inc("."+d.TLD, 1)
			}
		}
	}
	return Table5{TLDs: tlds.Sorted(), Countries: countries.Sorted()}
}

// CountryCDNRow is one line of Table 6/7: per-country instance counts
// split by CDN.
type CountryCDNRow struct {
	Country geo.CountryCode
	PerKind map[blockpage.Kind]int
	Total   int
}

// BuildCountryCDNTable computes the country × CDN instance matrix,
// sorted by total.
func BuildCountryCDNTable(findings []pipeline.Finding) []CountryCDNRow {
	perCountry := map[geo.CountryCode]*CountryCDNRow{}
	for _, f := range findings {
		row := perCountry[f.Country]
		if row == nil {
			row = &CountryCDNRow{Country: f.Country, PerKind: map[blockpage.Kind]int{}}
			perCountry[f.Country] = row
		}
		row.PerKind[f.Kind]++
		row.Total++
	}
	rows := make([]CountryCDNRow, 0, len(perCountry))
	for _, row := range perCountry {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Country < rows[j].Country
	})
	return rows
}

// ProviderRates summarizes §4.2.1 / §5.2.1: per CDN, how many customers
// were tested and how many geoblock somewhere.
type ProviderRates struct {
	Provider   worldgen.Provider
	Tested     int
	Geoblocked int
}

// Rate returns the fraction of customers that geoblock.
func (p ProviderRates) Rate() float64 {
	if p.Tested == 0 {
		return 0
	}
	return float64(p.Geoblocked) / float64(p.Tested)
}

// providerOfKind maps an explicit page kind back to its provider.
func providerOfKind(k blockpage.Kind) worldgen.Provider {
	switch k {
	case blockpage.Cloudflare:
		return worldgen.Cloudflare
	case blockpage.CloudFront:
		return worldgen.CloudFront
	case blockpage.AppEngine:
		return worldgen.AppEngine
	case blockpage.Baidu:
		return worldgen.Baidu
	default:
		return ""
	}
}

// BuildProviderRates computes per-provider geoblock rates given the
// tested population per provider.
func BuildProviderRates(tested map[worldgen.Provider]int, findings []pipeline.Finding) []ProviderRates {
	blocked := map[worldgen.Provider]map[string]bool{}
	for _, f := range findings {
		p := providerOfKind(f.Kind)
		if p == "" {
			continue
		}
		if blocked[p] == nil {
			blocked[p] = map[string]bool{}
		}
		blocked[p][f.DomainName] = true
	}
	var out []ProviderRates
	for _, p := range []worldgen.Provider{
		worldgen.Cloudflare, worldgen.CloudFront, worldgen.AppEngine,
		worldgen.Akamai, worldgen.Incapsula,
	} {
		if tested[p] == 0 && len(blocked[p]) == 0 {
			continue
		}
		out = append(out, ProviderRates{Provider: p, Tested: tested[p], Geoblocked: len(blocked[p])})
	}
	return out
}

// MedianBlockedPerCountry computes the median number of geoblocked
// domains per country, over the countries that observe any geoblocking
// (paper: median 3 in the Top 10K, 4 in the Top 1M — "most countries
// have at least a few domains preventing access by their residents").
func MedianBlockedPerCountry(findings []pipeline.Finding, countries []geo.CountryCode) float64 {
	perCountry := map[geo.CountryCode]map[string]bool{}
	for _, f := range findings {
		if perCountry[f.Country] == nil {
			perCountry[f.Country] = map[string]bool{}
		}
		perCountry[f.Country][f.DomainName] = true
	}
	counts := make([]int, 0, len(countries))
	for _, cc := range countries {
		if n := len(perCountry[cc]); n > 0 {
			counts = append(counts, n)
		}
	}
	if len(counts) == 0 {
		return 0
	}
	return stats.MedianInts(counts)
}

// RespondingDomains lists the tested domains that answered at least one
// sample — the denominators of Tables 4 and 8 ("Tested" counts only
// domains the study could actually reach).
func RespondingDomains(res *scanner.Result) []string {
	ok := make([]bool, len(res.Domains))
	for i := range res.Samples {
		if res.Samples[i].OK() {
			ok[res.Samples[i].Domain] = true
		}
	}
	var out []string
	for i, name := range res.Domains {
		if ok[i] {
			out = append(out, name)
		}
	}
	return out
}

// ErrorStats summarizes scan reliability the way §4.1.1 and §5.1.3 do:
// the per-domain error-rate distribution and per-country response
// rates.
type ErrorStats struct {
	// P90DomainErrorRate: 90% of domains saw an error rate at or below
	// this (paper: 11.7% in the Top 10K, 3.0% in the Top 1M sample).
	P90DomainErrorRate float64
	// CountryResponseRates maps each country to the fraction of its
	// (domain, country) pairs with at least one valid response (paper:
	// 89.2%–93.9%, except Comoros at 76.4%).
	CountryResponseRates map[geo.CountryCode]float64
}

// BuildErrorStats computes the reliability summary from a scan.
func BuildErrorStats(res *scanner.Result) ErrorStats {
	const seen, answered = 1, 2
	nc := len(res.Countries)
	domainErr := make([]int, len(res.Domains))
	domainAll := make([]int, len(res.Domains))
	pairs := make([]uint8, len(res.Domains)*nc) // seen/answered bits per (domain, country)
	countrySeen := make([]int, nc)
	countryOK := make([]int, nc)
	for i := range res.Samples {
		s := &res.Samples[i]
		domainAll[s.Domain]++
		p := &pairs[int(s.Domain)*nc+int(s.Country)]
		if *p&seen == 0 {
			*p |= seen
			countrySeen[s.Country]++
		}
		if !s.OK() {
			domainErr[s.Domain]++
		} else if *p&answered == 0 {
			*p |= answered
			countryOK[s.Country]++
		}
	}

	rates := make([]float64, 0, len(res.Domains))
	for i := range res.Domains {
		if domainAll[i] == 0 {
			continue
		}
		rates = append(rates, float64(domainErr[i])/float64(domainAll[i]))
	}
	out := ErrorStats{CountryResponseRates: map[geo.CountryCode]float64{}}
	if len(rates) > 0 {
		c := stats.NewCDF(rates...)
		out.P90DomainErrorRate = c.Quantile(0.9)
	}
	for ci, n := range countrySeen {
		if n > 0 {
			out.CountryResponseRates[res.Countries[ci]] = float64(countryOK[ci]) / float64(n)
		}
	}
	return out
}
