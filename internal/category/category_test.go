package category

import "testing"

func TestSafeRiskyDisjoint(t *testing.T) {
	risky := map[Category]bool{}
	for _, c := range Risky() {
		risky[c] = true
	}
	for _, c := range Safe() {
		if risky[c] {
			t.Fatalf("%s is both safe and risky", c)
		}
		if IsRisky(c) || IsRiskyTop1M(c) {
			t.Fatalf("safe category %s classified risky", c)
		}
	}
}

func TestRiskyPolicy(t *testing.T) {
	if !IsRisky(Pornography) || !IsRisky(Unknown) {
		t.Fatal("Top-10K filter misses core risky categories")
	}
	if !IsRisky(Dating) || !IsRisky(Drugs) || !IsRisky(Violence) {
		t.Fatal("sensitive categories must be excluded before residential probing")
	}
	if IsRisky(Circumvention) {
		t.Fatal("Circumvention is only excluded in the Top-1M study")
	}
	if !IsRiskyTop1M(Dating) || !IsRiskyTop1M(Circumvention) || !IsRiskyTop1M(Spam) {
		t.Fatal("Top-1M filter must be a superset")
	}
}

func TestTop1MFilterSuperset(t *testing.T) {
	for _, c := range append(Safe(), Risky()...) {
		if IsRisky(c) && !IsRiskyTop1M(c) {
			t.Fatalf("%s risky for Top10K but not Top1M", c)
		}
	}
}

func TestWeightsCoverTaxonomy(t *testing.T) {
	for name, weights := range map[string][]Weight{
		"top10k": Top10KWeights(),
		"top1m":  Top1MWeights(),
	} {
		seen := map[Category]bool{}
		for _, w := range weights {
			if w.W <= 0 {
				t.Errorf("%s: non-positive weight for %s", name, w.Cat)
			}
			if seen[w.Cat] {
				t.Errorf("%s: duplicate weight for %s", name, w.Cat)
			}
			seen[w.Cat] = true
		}
		for _, c := range Safe() {
			if !seen[c] {
				t.Errorf("%s: safe category %s missing a weight", name, c)
			}
		}
	}
}

func TestTop10KRiskyFraction(t *testing.T) {
	var safe, risky float64
	for _, w := range Top10KWeights() {
		if IsRisky(w.Cat) {
			risky += w.W
		} else {
			safe += w.W
		}
	}
	frac := risky / (safe + risky)
	// The paper keeps 8,003 of 10,000: the risky fraction should land
	// near 20%.
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("risky weight fraction = %.3f, want ~0.20", frac)
	}
}
