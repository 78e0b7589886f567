package textfeat

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"geoblock/internal/blockpage"
	"geoblock/internal/stats"
)

func TestTokenize(t *testing.T) {
	// Digit-bearing tokens collapse to the "0" placeholder (variable
	// fields — ray IDs, reference numbers — must not split templates).
	got := Tokenize("Hello, World! x 42-foo ref4af7 <p>bar</p>")
	want := []string{"hello", "world", "0", "foo", "0", "bar"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestGramOrder(t *testing.T) {
	// A document's terms are its 1-grams in token order, then its
	// 2-grams; ids count up in the order terms first appear.
	v := Fit([]string{"a1 bb cc bb", "dd bb"})
	want := []string{"0", "bb", "cc", "0 bb", "bb cc", "cc bb", "dd", "dd bb"}
	if v.VocabSize() != len(want) {
		t.Fatalf("vocab size = %d, want %d", v.VocabSize(), len(want))
	}
	for id, term := range want {
		if got, ok := v.vocab[term]; !ok || got != int32(id) {
			t.Errorf("term %q has id %d (present %v), want %d", term, got, ok, id)
		}
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	_, vecs := FitTransform([]string{
		"the quick brown fox", "lazy dogs sleep here", "the quick brown fox",
	})
	if s := Cosine(vecs[0], vecs[2]); math.Abs(s-1) > 1e-6 {
		t.Fatalf("identical docs cosine = %v", s)
	}
	if s := Cosine(vecs[0], vecs[0]); math.Abs(s-1) > 1e-6 {
		t.Fatalf("self cosine = %v", s)
	}
}

func TestDisjointDocsZero(t *testing.T) {
	_, vecs := FitTransform([]string{"alpha beta gamma", "delta epsilon zeta"})
	if s := Cosine(vecs[0], vecs[1]); s != 0 {
		t.Fatalf("disjoint docs cosine = %v", s)
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	rng := stats.NewRNG(7)
	words := strings.Fields("aa bb cc dd ee ff gg hh ii jj kk ll")
	mkDoc := func() string {
		n := 3 + rng.Intn(20)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		return b.String()
	}
	docs := make([]string, 40)
	for i := range docs {
		docs[i] = mkDoc()
	}
	_, vecs := FitTransform(docs)
	f := func(a, b uint8) bool {
		i, j := int(a)%len(vecs), int(b)%len(vecs)
		s := Cosine(vecs[i], vecs[j])
		return s >= 0 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSymmetric(t *testing.T) {
	_, vecs := FitTransform([]string{
		"access denied cloudflare ray", "access denied reference number", "hello world page",
	})
	for i := range vecs {
		for j := range vecs {
			if math.Abs(Cosine(vecs[i], vecs[j])-Cosine(vecs[j], vecs[i])) > 1e-9 {
				t.Fatalf("cosine not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransformUnseenTermsIgnored(t *testing.T) {
	v := Fit([]string{"known words only"})
	vec := v.Transform("completely novel vocabulary")
	if vec.NNZ() != 0 {
		t.Fatalf("unseen terms produced %d entries", vec.NNZ())
	}
}

func TestVectorNormalized(t *testing.T) {
	_, vecs := FitTransform([]string{"one two three two one", "four five six"})
	for i, v := range vecs {
		var norm float64
		for _, x := range v.Val {
			norm += float64(x) * float64(x)
		}
		if math.Abs(norm-1) > 1e-5 {
			t.Fatalf("vector %d norm² = %v", i, norm)
		}
	}
}

func TestIDFDownweightsCommonTerms(t *testing.T) {
	// "common" appears in every doc, "rare" in one; in a doc containing
	// both once, the rare term must carry more weight.
	docs := []string{"common rare", "common filler", "common words", "common stuff"}
	v := Fit(docs)
	vec := v.Transform("common rare")
	cID, rID := v.vocab["common"], v.vocab["rare"]
	var wCommon, wRare float32
	for i, id := range vec.Idx {
		if id == cID {
			wCommon = vec.Val[i]
		}
		if id == rID {
			wRare = vec.Val[i]
		}
	}
	if wRare <= wCommon {
		t.Fatalf("rare weight %v <= common weight %v", wRare, wCommon)
	}
}

func TestBlockPagesOfSameKindSimilar(t *testing.T) {
	// Two renders of the same template (different variable fields) must
	// be far more similar than pages of different kinds.
	varsA := blockpage.Vars{Domain: "a.example.com", ClientIP: "1.2.3.4", CountryName: "Iran", RayID: "aaaa111", Nonce: "n1"}
	varsB := blockpage.Vars{Domain: "b.example.net", ClientIP: "5.6.7.8", CountryName: "Syria", RayID: "bbbb222", Nonce: "n2"}
	docs := []string{
		blockpage.Render(blockpage.Cloudflare, varsA),
		blockpage.Render(blockpage.Cloudflare, varsB),
		blockpage.Render(blockpage.Akamai, varsA),
		blockpage.Render(blockpage.Akamai, varsB),
		blockpage.Render(blockpage.CloudFront, varsA),
	}
	_, vecs := FitTransform(docs)
	sameCF := Cosine(vecs[0], vecs[1])
	sameAk := Cosine(vecs[2], vecs[3])
	cross := Cosine(vecs[0], vecs[2])
	if sameCF < 0.82 || sameAk < 0.82 {
		t.Fatalf("same-kind similarity too low: cf=%v ak=%v", sameCF, sameAk)
	}
	if cross > 0.5 {
		t.Fatalf("cross-kind similarity too high: %v", cross)
	}
}

func TestVocabSize(t *testing.T) {
	v := Fit([]string{"aa bb", "bb cc"})
	// terms: aa, bb, cc, "aa bb", "bb cc"
	if v.VocabSize() != 5 {
		t.Fatalf("vocab size = %d", v.VocabSize())
	}
}
