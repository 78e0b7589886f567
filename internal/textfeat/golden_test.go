package textfeat

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the vectorizer golden file")

// goldenCorpus is the fixed corpus the golden pins: every template
// rendered under several variable sets, junk and origin pages,
// digit-bearing tokens, byte-identical duplicates, an empty document,
// and a document past maxDocTokens whose tail must not reach the
// vocabulary.
func goldenCorpus() []string {
	varsets := []blockpage.Vars{
		{Domain: "shop.example.com", ClientIP: "203.0.113.9", CountryName: "Iran", RayID: "4d6f636b526179", Nonce: "n0nce42"},
		{Domain: "news.example.org", Path: "/world/today", ClientIP: "198.51.100.4", CountryName: "Syria", RayID: "deadbeef", Nonce: "abc"},
		{Domain: "Mixed-Case.Example.NET", CountryName: "North Korea", RayID: "ZZ-top", Nonce: "q"},
	}
	var docs []string
	for _, v := range varsets {
		for _, k := range append(blockpage.Kinds(), blockpage.Censorship, blockpage.Legal451) {
			docs = append(docs, blockpage.Render(k, v))
		}
	}
	for _, k := range blockpage.JunkKinds() {
		docs = append(docs, blockpage.RenderJunk(k, "parked.example", "x9"))
	}
	rng := stats.NewRNG(21)
	for i := 0; i < 2; i++ {
		site := blockpage.NewOriginSite(fmt.Sprintf("origin%d.example", i), rng.Fork(fmt.Sprint(i)))
		docs = append(docs, site.Render(uint64(i)))
	}
	docs = append(docs,
		"ref4af7 42-foo x 7 A1b2 ab 9z HTTP/1.1 v2.0 über naïve",
		"",
		docs[0], // byte-identical duplicates
		docs[len(blockpage.Kinds())+3],
		strings.Repeat("alpha beta gamma ", maxDocTokens/3+1)+"omega tail",
	)
	return docs
}

// TestVectorizerGolden pins the vocabulary (term → id) and every
// vector's Idx and Val bits over goldenCorpus, and that FitTransform
// equals Fit followed by Transform.
func TestVectorizerGolden(t *testing.T) {
	docs := goldenCorpus()
	v, vecs := FitTransform(docs)
	fit := Fit(docs)
	if fit.VocabSize() != v.VocabSize() {
		t.Fatalf("Fit vocabulary %d terms, FitTransform %d", fit.VocabSize(), v.VocabSize())
	}
	for i, d := range docs {
		if got, want := vectorDigest(fit.Transform(d)), vectorDigest(vecs[i]); got != want {
			t.Errorf("doc %d: Fit+Transform %s, FitTransform %s", i, got, want)
		}
	}
	if _, ok := v.vocab["omega"]; ok {
		t.Error("a term past maxDocTokens reached the vocabulary")
	}

	terms := make([]string, 0, len(v.vocab))
	for term := range v.vocab {
		terms = append(terms, term)
	}
	sort.Slice(terms, func(i, j int) bool { return v.vocab[terms[i]] < v.vocab[terms[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "docs %d vocab %d\n", len(docs), len(terms))
	for i, vec := range vecs {
		fmt.Fprintf(&b, "doc %d %s\n", i, vectorDigest(vec))
	}
	for _, term := range terms {
		fmt.Fprintf(&b, "%d %s\n", v.vocab[term], term)
	}

	path := filepath.Join("testdata", "vectorizer.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// vectorDigest renders a vector as its entry count and an FNV-64a
// digest of its Idx values and Val bit patterns.
func vectorDigest(v Vector) string {
	h := fnv.New64a()
	var buf [8]byte
	for i, id := range v.Idx {
		binary.LittleEndian.PutUint32(buf[:4], uint32(id))
		binary.LittleEndian.PutUint32(buf[4:], math.Float32bits(v.Val[i]))
		h.Write(buf[:])
	}
	return fmt.Sprintf("nnz=%d fnv=%016x", len(v.Idx), h.Sum64())
}
