package pipeline

import (
	"geoblock/internal/blockpage"
	"geoblock/internal/consistency"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
)

// ConsistencyExperiment is the §4.1.4/§4.1.5 machinery behind Figures 1
// and 3: sample each confirmed geoblocking pair many times, then
// subsample combinations of different sizes to measure (a) how
// consistently the block page shows at each sample size and (b) how
// often small samples miss it entirely.
type ConsistencyExperiment struct {
	// SampleSizes are the subsample sizes evaluated.
	SampleSizes []int
	// Draws is the number of random combinations per size (paper: 500).
	Draws int
	// Population is the per-pair sample count (paper: 100).
	Population int

	// RatesBySize[k] holds, for each pair, each draw's block fraction.
	RatesBySize map[int][]float64
	// FalseNegBySize[k] holds, per pair, the fraction of draws with no
	// block observation.
	FalseNegBySize map[int][]float64
}

// RunConsistencyExperiment samples every *candidate* pair `population`
// times and computes the subsampling curves. It mirrors §4.1.4: "we
// took the country-domain pairs where we saw at least one instance of
// an explicit block page and sampled them 100 additional times" — the
// pre-threshold population, so the noisy pairs the confirmation step
// later eliminates are part of the curves.
func (s *Study) RunConsistencyExperiment(r *Top10KResult, population, draws int, sizes []int) *ConsistencyExperiment {
	if population <= 0 {
		population = 100
	}
	if draws <= 0 {
		draws = 500
	}
	if len(sizes) == 0 {
		sizes = []int{1, 2, 3, 5, 10, 20, 40, 80, 100}
	}
	exp := &ConsistencyExperiment{
		SampleSizes:    sizes,
		Draws:          draws,
		Population:     population,
		RatesBySize:    map[int][]float64{},
		FalseNegBySize: map[int][]float64{},
	}

	domainIdx := map[string]int32{}
	for i, d := range r.SafeDomains {
		domainIdx[d] = int32(i)
	}
	countryIdx := map[string]int16{}
	for i, cc := range r.Countries {
		countryIdx[string(cc)] = int16(i)
	}

	kinds := make(map[pairKey]struct{}, len(r.Candidates))
	for _, f := range r.Candidates {
		kinds[pairKey{domainIdx[f.DomainName], countryIdx[string(f.Country)]}] = struct{}{}
	}

	scanCfg := s.scanConfig("consistency-100")
	scanCfg.Samples = population
	// The experiment measures "the rate of other failures, for example
	// proxy errors, transient network failures, and local filtering"
	// (§4.1.5) — raw per-sample outcomes, so retries are off.
	scanCfg.Retries = 0

	// Per-pair boolean observation vectors (errors count as misses: the
	// experiment measures "the rate of other failures", §4.1.5). At 100
	// samples per pair this is the deepest scan in the repo, so each
	// sample streams into its bit and the body is gone immediately.
	perPair := map[pairKey][]bool{}
	s.scanStream("figure1", scanCfg, r.SafeDomains, r.Countries, taskList(kinds),
		scanner.SinkFunc(func(sm scanner.Sample) {
			key := pairKey{sm.Domain, sm.Country}
			if _, tracked := kinds[key]; !tracked {
				return
			}
			hit := sm.OK() && sm.Body != "" && s.explicitKind(sm.Body) != blockpage.KindNone
			perPair[key] = append(perPair[key], hit)
		}))

	// Figure 1 draws from every candidate pair; Figure 3 ("known
	// geoblockers") only from the pairs the threshold confirmed.
	confirmed := map[pairKey]bool{}
	for _, f := range r.Findings {
		confirmed[pairKey{domainIdx[f.DomainName], countryIdx[string(f.Country)]}] = true
	}

	rng := s.studyRNG("consistency-subsample")
	for _, key := range sortedPairs(perPair) {
		blocks := perPair[key]
		for _, k := range sizes {
			rates := consistency.SubsampleBlockRates(blocks, k, draws, rng)
			exp.RatesBySize[k] = append(exp.RatesBySize[k], stats.Mean(rates))
			if confirmed[key] {
				exp.FalseNegBySize[k] = append(exp.FalseNegBySize[k],
					consistency.FalseNegativeRate(blocks, k, draws, rng))
			}
		}
	}
	return exp
}

// FractionBelow returns, for sample size k, the fraction of pairs whose
// mean block rate across draws falls below rate — the Figure 1 CDF
// readout (the paper: at 20 samples, 3.9% of pairs sat under 80%).
func (e *ConsistencyExperiment) FractionBelow(k int, rate float64) float64 {
	rs := e.RatesBySize[k]
	if len(rs) == 0 {
		return 0
	}
	n := 0
	for _, r := range rs {
		if r < rate {
			n++
		}
	}
	return float64(n) / float64(len(rs))
}

// MeanFalseNegative returns the average miss rate at sample size k —
// the Figure 3 series (the paper: 1.7% at 3 samples).
func (e *ConsistencyExperiment) MeanFalseNegative(k int) float64 {
	return stats.Mean(e.FalseNegBySize[k])
}
