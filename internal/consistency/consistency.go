// Package consistency implements the paper's resampling methodology:
// the 80% agreement threshold that turns noisy block-page observations
// into confirmed geoblocking (§4.1.4), the per-domain consistency score
// used to separate geoblocking from bot defenses on the non-explicit
// CDNs (§5.2.2), and the subsampling machinery behind Figures 1 and 3.
package consistency

import (
	"geoblock/internal/stats"
)

// DefaultThreshold is the paper's agreement cut: a (domain, country)
// pair counts as geoblocked when at least 80% of its samples returned
// the block page.
const DefaultThreshold = 0.80

// Rate summarizes the observations of one (domain, country) pair.
type Rate struct {
	// Responses is the number of samples that returned any HTTP
	// response (errors are excluded from the denominator).
	Responses int
	// Blocks is how many of them were the block page under test.
	Blocks int
}

// Frac returns Blocks/Responses (0 when nothing responded).
func (r Rate) Frac() float64 {
	if r.Responses == 0 {
		return 0
	}
	return float64(r.Blocks) / float64(r.Responses)
}

// Confirmed applies the agreement threshold.
func (r Rate) Confirmed(threshold float64) bool {
	return r.Responses > 0 && r.Frac() >= threshold
}

// DomainConsistency computes the §5.2.2 score for one domain: among
// the countries that saw the block page at least once, the fraction
// whose block rate meets the threshold. The paper's example: two
// countries at 100% and the rest at zero scores 1.0; three countries
// at 90% plus one at 20% scores 0.75.
func DomainConsistency(perCountry map[string]Rate, threshold float64) (score float64, countriesSeen int) {
	consistent := 0
	for _, r := range perCountry {
		if r.Blocks == 0 {
			continue
		}
		countriesSeen++
		if r.Frac() >= threshold {
			consistent++
		}
	}
	if countriesSeen == 0 {
		return 0, 0
	}
	return float64(consistent) / float64(countriesSeen), countriesSeen
}

// BlockedEverywhere reports whether every responding country saw the
// block page at its full rate — the §5.2.2 exclusion for domains that
// block all countries (those are bot defenses against the platform,
// not geoblocking).
func BlockedEverywhere(perCountry map[string]Rate, threshold float64) bool {
	any := false
	for _, r := range perCountry {
		if r.Responses == 0 {
			continue
		}
		any = true
		if r.Frac() < threshold {
			return false
		}
	}
	return any
}

// SubsampleBlockRates draws `draws` random combinations of size k from
// a pair's observation vector and returns each combination's block
// fraction — the machinery of Figure 1 (consistency for various sample
// rates). Every draw reuses the first one's memory.
func SubsampleBlockRates(blocks []bool, k, draws int, rng *stats.RNG) []float64 {
	if k > len(blocks) {
		k = len(blocks)
	}
	out := make([]float64, 0, draws)
	var buf stats.SampleBuf
	for i := 0; i < draws; i++ {
		idx := rng.SampleIntsInto(&buf, len(blocks), k)
		hit := 0
		for _, j := range idx {
			if blocks[j] {
				hit++
			}
		}
		out = append(out, float64(hit)/float64(k))
	}
	return out
}

// FalseNegativeRate draws `draws` combinations of size k and returns
// the fraction containing no block observation at all — Figure 3 (the
// risk of missing a geoblocker entirely at small sample sizes). Every
// draw reuses the first one's memory.
func FalseNegativeRate(blocks []bool, k, draws int, rng *stats.RNG) float64 {
	if k > len(blocks) {
		k = len(blocks)
	}
	misses := 0
	var buf stats.SampleBuf
	for i := 0; i < draws; i++ {
		idx := rng.SampleIntsInto(&buf, len(blocks), k)
		hit := false
		for _, j := range idx {
			if blocks[j] {
				hit = true
				break
			}
		}
		if !hit {
			misses++
		}
	}
	return float64(misses) / float64(draws)
}
