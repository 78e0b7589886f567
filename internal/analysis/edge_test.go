package analysis

import (
	"testing"

	"geoblock/internal/geo"
	"geoblock/internal/pipeline"
	"geoblock/internal/scanner"
	"geoblock/internal/worldgen"
)

func TestBuildersOnEmptyFindings(t *testing.T) {
	w := worldgen.Generate(func() worldgen.Config {
		c := worldgen.TestConfig()
		c.Scale = 0.02
		return c
	}())
	var none []pipeline.Finding

	if rows := BuildTable3(w, none); len(rows) != 0 {
		t.Fatalf("table 3 on empty: %v", rows)
	}
	t5 := BuildTable5(w, none)
	if len(t5.TLDs) != 0 || len(t5.Countries) != 0 {
		t.Fatal("table 5 on empty should be empty")
	}
	if rows := BuildCountryCDNTable(none); len(rows) != 0 {
		t.Fatal("country table on empty should be empty")
	}
	if m := MedianBlockedPerCountry(none, w.Geo.Measurable()); m != 0 {
		t.Fatalf("median on empty = %v", m)
	}
	rates := BuildProviderRates(map[worldgen.Provider]int{worldgen.Cloudflare: 10}, none)
	for _, r := range rates {
		if r.Geoblocked != 0 {
			t.Fatal("phantom geoblockers")
		}
	}
}

func TestProviderRateZeroTested(t *testing.T) {
	p := ProviderRates{Provider: worldgen.Cloudflare, Tested: 0, Geoblocked: 0}
	if p.Rate() != 0 {
		t.Fatal("rate with zero denominator must be 0")
	}
}

func TestCategoryRateZeroTested(t *testing.T) {
	r := CategoryRateRow{Tested: 0, Geoblocked: 0}
	if r.Rate() != 0 {
		t.Fatal("rate with zero denominator must be 0")
	}
}

func TestTable2RowRecallZero(t *testing.T) {
	r := Table2Row{Recalled: 0, Actual: 0}
	if r.Recall() != 0 {
		t.Fatal("recall 0/0 must be 0")
	}
}

func TestMedianSingleCountry(t *testing.T) {
	findings := []pipeline.Finding{
		{DomainName: "a.example", Country: "IR"},
		{DomainName: "b.example", Country: "IR"},
		{DomainName: "c.example", Country: "IR"},
	}
	m := MedianBlockedPerCountry(findings, []geo.CountryCode{"IR", "US", "DE"})
	if m != 3 {
		t.Fatalf("median = %v, want 3 (only countries with blocking count)", m)
	}
}

func TestBuildCountryCDNDuplicateDomainsCountInstances(t *testing.T) {
	findings := []pipeline.Finding{
		{DomainName: "a.example", Country: "IR"},
		{DomainName: "a.example", Country: "SY"},
		{DomainName: "a.example", Country: "IR"}, // duplicate pair: two instances
	}
	rows := BuildCountryCDNTable(findings)
	total := 0
	for _, r := range rows {
		total += r.Total
	}
	if total != 3 {
		t.Fatalf("instances = %d; country tables count instances, not domains", total)
	}
}

func TestBuildErrorStats(t *testing.T) {
	res := &scanner.Result{
		Domains:   []string{"a", "b"},
		Countries: []geo.CountryCode{"US", "KM"},
		Samples: []scanner.Sample{
			{Domain: 0, Country: 0, Status: 200},
			{Domain: 0, Country: 0, Status: 200},
			{Domain: 0, Country: 1, Err: scanner.ErrTimeout},
			{Domain: 1, Country: 0, Status: 200},
			{Domain: 1, Country: 1, Err: scanner.ErrProxy},
			{Domain: 1, Country: 1, Err: scanner.ErrProxy},
		},
	}
	es := BuildErrorStats(res)
	if es.CountryResponseRates["US"] != 1.0 {
		t.Fatalf("US response rate = %v", es.CountryResponseRates["US"])
	}
	if es.CountryResponseRates["KM"] != 0.0 {
		t.Fatalf("KM response rate = %v", es.CountryResponseRates["KM"])
	}
	if es.P90DomainErrorRate <= 0 {
		t.Fatal("p90 error rate should be positive with failing samples")
	}
}
