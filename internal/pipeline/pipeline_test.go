package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
	"geoblock/internal/scanner"
	"geoblock/internal/trace"
	"geoblock/internal/worldgen"
)

// The Top-10K study is expensive even at test scale; run it once and
// share the result across tests.
var (
	onceTop10K   sync.Once
	sharedStudy  *Study
	sharedResult *Top10KResult
)

func top10K(t *testing.T) (*Study, *Top10KResult) {
	t.Helper()
	onceTop10K.Do(func() {
		w := worldgen.Generate(worldgen.TestConfig())
		sharedStudy = New(w)
		sharedResult = sharedStudy.RunTop10K(Top10KConfig{Concurrency: 8})
	})
	return sharedStudy, sharedResult
}

func TestTop10KFiltering(t *testing.T) {
	_, r := top10K(t)
	if r.InitialCount != 1000 {
		t.Fatalf("initial = %d", r.InitialCount)
	}
	frac := float64(len(r.SafeDomains)) / float64(r.InitialCount)
	if frac < 0.70 || frac > 0.90 {
		t.Fatalf("safe fraction %.2f, want ~0.80", frac)
	}
	if r.RemovedRisky == 0 || r.RemovedCitizenLab == 0 {
		t.Fatalf("filter removed risky=%d citizenlab=%d", r.RemovedRisky, r.RemovedCitizenLab)
	}
}

func TestTop10KCoverage(t *testing.T) {
	_, r := top10K(t)
	if len(r.Countries) != 177 {
		t.Fatalf("countries = %d", len(r.Countries))
	}
	want := len(r.SafeDomains) * len(r.Countries) * 3
	if len(r.Initial.Samples) != want {
		t.Fatalf("samples = %d, want %d", len(r.Initial.Samples), want)
	}
	if r.NeverResponded == 0 {
		t.Fatal("expected some unreachable domains")
	}
	if r.NeverResponded > len(r.SafeDomains)/10 {
		t.Fatalf("too many unreachable: %d", r.NeverResponded)
	}
}

func TestTop10KOutliers(t *testing.T) {
	_, r := top10K(t)
	if len(r.RepCountries) != 20 {
		t.Fatalf("rep countries = %d", len(r.RepCountries))
	}
	// Sanctioned countries should rank into the reference set.
	found := 0
	for _, cc := range r.RepCountries {
		switch cc {
		case "IR", "SY", "SD", "CU":
			found++
		}
	}
	if found < 3 {
		t.Fatalf("only %d sanctioned countries in the reference set %v", found, r.RepCountries)
	}
	if len(r.Outliers) == 0 {
		t.Fatal("no outliers extracted")
	}
	outFrac := float64(len(r.Outliers)) / float64(r.RepSampleCount)
	// Paper: 5.1% of the reference samples.
	if outFrac < 0.005 || outFrac > 0.15 {
		t.Fatalf("outlier fraction %.3f outside plausible band", outFrac)
	}
	for _, o := range r.Outliers {
		if o.Body == "" {
			t.Fatal("outlier without body")
		}
	}
}

func TestTop10KDiscovery(t *testing.T) {
	_, r := top10K(t)
	if len(r.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	kinds := map[blockpage.Kind]bool{}
	for _, k := range r.DiscoveredKinds {
		kinds[k] = true
	}
	// The cornerstone discoveries must be present.
	for _, k := range []blockpage.Kind{blockpage.Cloudflare, blockpage.AppEngine} {
		if !kinds[k] {
			t.Errorf("kind %v not discovered (have %v)", k, r.DiscoveredKinds)
		}
	}
	provs := r.DiscoveredProviders()
	if len(provs) < 4 {
		t.Fatalf("discovered providers = %v", provs)
	}
}

func TestTop10KRecall(t *testing.T) {
	_, r := top10K(t)
	var recalled, actual int
	for _, row := range r.Recall {
		recalled += row.Recalled
		actual += row.Actual
		if row.Recalled > row.Actual {
			t.Fatalf("recall row exceeds actual: %+v", row)
		}
	}
	if actual == 0 {
		t.Fatal("no actual block pages in the reference countries")
	}
	overall := float64(recalled) / float64(actual)
	// Paper: 58.3% overall; wide tolerance for the scaled world.
	if overall < 0.25 || overall > 0.95 {
		t.Fatalf("overall recall %.2f outside plausible band", overall)
	}
}

func TestTop10KFindings(t *testing.T) {
	_, r := top10K(t)
	if len(r.Findings) == 0 {
		t.Fatal("no confirmed geoblocking")
	}
	if r.CandidatePairs < len(r.Findings) {
		t.Fatal("more findings than candidates")
	}
	if r.Eliminated+len(r.Findings) != len(r.AgreementRates) {
		t.Fatalf("eliminated %d + findings %d != candidates with rates %d",
			r.Eliminated, len(r.Findings), len(r.AgreementRates))
	}
	perCountry := map[geo.CountryCode]int{}
	for _, f := range r.Findings {
		if !f.Kind.Explicit() {
			t.Fatalf("non-explicit finding: %+v", f)
		}
		if f.Rate.Frac() < 0.8 {
			t.Fatalf("finding below threshold: %+v", f)
		}
		perCountry[f.Country]++
	}
	// Shape: the sanctioned four dominate.
	for _, sanc := range []geo.CountryCode{"IR", "SY", "SD", "CU"} {
		if perCountry[sanc] < perCountry["DE"] {
			t.Errorf("%s (%d findings) should exceed DE (%d)", sanc, perCountry[sanc], perCountry["DE"])
		}
	}
	unique := UniqueDomains(r.Findings)
	// Scale 0.1 of the paper's 100 unique domains.
	if unique < 3 || unique > 40 {
		t.Fatalf("unique geoblocked domains = %d", unique)
	}
}

func TestTop10KMakroEliminated(t *testing.T) {
	// makro.co.za's rule lifts between the snapshot and the resample;
	// it must appear as a candidate but not survive confirmation.
	_, r := top10K(t)
	for _, f := range r.Findings {
		if f.DomainName == "makro.co.za" {
			t.Fatal("makro.co.za should have been eliminated by the threshold")
		}
	}
	if r.Eliminated == 0 {
		t.Fatal("no eliminated pairs at all; the threshold did nothing")
	}
}

func TestTop10KAppEngineOnlySanctioned(t *testing.T) {
	_, r := top10K(t)
	for _, f := range r.Findings {
		if f.Kind != blockpage.AppEngine {
			continue
		}
		switch f.Country {
		case "IR", "SY", "SD", "CU":
		default:
			t.Fatalf("AppEngine finding outside the sanctioned set: %s", f.Country)
		}
	}
}

func TestFindingsByKind(t *testing.T) {
	_, r := top10K(t)
	groups := FindingsByKind(r.Findings)
	total := 0
	for _, fs := range groups {
		total += len(fs)
	}
	if total != len(r.Findings) {
		t.Fatal("grouping lost findings")
	}
}

func TestConsistencyExperiment(t *testing.T) {
	s, r := top10K(t)
	exp := s.RunConsistencyExperiment(r, 30, 100, []int{1, 3, 20})
	if len(exp.RatesBySize[3]) == 0 {
		t.Fatal("no rates collected")
	}
	fn1 := exp.MeanFalseNegative(1)
	fn3 := exp.MeanFalseNegative(3)
	fn20 := exp.MeanFalseNegative(20)
	if fn3 > fn1+1e-9 || fn20 > fn3+1e-9 {
		t.Fatalf("false negatives must shrink with sample size: %v %v %v", fn1, fn3, fn20)
	}
	if fn3 > 0.2 {
		t.Fatalf("3-sample miss rate %.3f too high (paper: 1.7%%)", fn3)
	}
	// The candidate population includes the transient pairs the
	// threshold later eliminates (makro-style policy flips, stray GeoIP
	// exits). makro.co.za alone contributes ~30 expired pairs — a fixed
	// cameo cost that is ~30% of the candidate pool at test scale but
	// only ~4.5% at paper scale, where the measured fraction (~12%)
	// sits near the paper's 11.4% eliminated / 3.9% below-80 numbers.
	if below := exp.FractionBelow(20, 0.8); below > 0.60 {
		t.Fatalf("%.2f of pairs below 80%% at 20 samples", below)
	}
}

func TestComorosIsTheResponseRateOutlier(t *testing.T) {
	// §4.1.1: every country returned 89.2–93.9% of pairs except Comoros
	// at 76.4%. The world's one deliberately degraded (but usable)
	// country must surface exactly there.
	_, r := top10K(t)
	type pairIdx struct {
		d int32
		c int16
	}
	seen := map[pairIdx]bool{}
	ok := map[pairIdx]bool{}
	for i := range r.Initial.Samples {
		sm := &r.Initial.Samples[i]
		key := pairIdx{sm.Domain, sm.Country}
		seen[key] = true
		if sm.OK() {
			ok[key] = true
		}
	}
	perCountrySeen := map[int16]int{}
	perCountryOK := map[int16]int{}
	for key := range seen {
		perCountrySeen[key.c]++
		if ok[key] {
			perCountryOK[key.c]++
		}
	}
	var kmRate float64
	better := 0
	for ci, n := range perCountrySeen {
		rate := float64(perCountryOK[ci]) / float64(n)
		if r.Countries[ci] == "KM" {
			kmRate = rate
		} else if rate > 0.85 {
			better++
		}
	}
	if kmRate > 0.93 {
		t.Fatalf("Comoros response rate %.3f; should be the degraded outlier", kmRate)
	}
	if better < 150 {
		t.Fatalf("only %d countries above 85%% response rate", better)
	}
}

// TestAbortNamesJournalKey: a scan abort is reported under the scan's
// journal key, so Err, the trace and the journal name the phase the
// same way. Only the Top-10K confirmation pass fails here.
func TestAbortNamesJournalKey(t *testing.T) {
	cfg := worldgen.TestConfig()
	cfg.Scale = 0.02
	s := New(worldgen.Generate(cfg))
	s.Trace = trace.New(trace.Root(cfg.Seed))
	injected := errors.New("injected resample failure")
	s.Runner = func(ctx context.Context, domains []string, countries []geo.CountryCode, tasks []scanner.Task, cfg scanner.Config, sink scanner.Sink) error {
		if cfg.Phase == "top10k-resample" {
			return injected
		}
		return scanner.Run(ctx, s.Net, domains, countries, tasks, cfg, sink)
	}
	s.RunTop10K(Top10KConfig{})

	var pe *PhaseError
	if !errors.As(s.Err(), &pe) || pe.Phase != "top10k-resample" {
		t.Fatalf("Err() = %v, want a PhaseError for top10k-resample", s.Err())
	}
	if !errors.Is(s.Err(), injected) {
		t.Fatalf("Err() = %v does not wrap the injected error", s.Err())
	}
	var outcomes []string
	for _, ev := range s.Trace.Snapshot().Events {
		if ev.Name == "pipeline/scan" && ev.Phase == "top10k-resample" {
			outcomes = append(outcomes, ev.Outcome)
		}
	}
	if len(outcomes) != 1 || outcomes[0] != "aborted" {
		t.Fatalf("top10k-resample pipeline/scan outcomes = %v, want [aborted]", outcomes)
	}
}
