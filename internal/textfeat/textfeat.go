// Package textfeat builds term-frequency/inverse-document-frequency
// feature vectors over word 1- and 2-grams — the scikit-learn
// vectorization the paper feeds into hierarchical clustering (§4.1.3),
// reimplemented on sparse vectors.
package textfeat

import (
	"math"
	"slices"
)

// Vector is a sparse, L2-normalized feature vector. Indices are sorted
// ascending and unique.
type Vector struct {
	Idx []int32
	Val []float32
}

// NNZ returns the number of non-zero entries.
func (v Vector) NNZ() int { return len(v.Idx) }

// Cosine returns the cosine similarity of two normalized vectors, in
// [0, 1] for non-negative features (TF-IDF weights are non-negative).
func Cosine(a, b Vector) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] == b.Idx[j]:
			dot += float64(a.Val[i]) * float64(b.Val[j])
			i++
			j++
		case a.Idx[i] < b.Idx[j]:
			i++
		default:
			j++
		}
	}
	if dot > 1 {
		dot = 1 // guard against float drift
	}
	return dot
}

// Tokenize lowercases the document and splits it into alphanumeric word
// tokens; markup punctuation separates tokens, mirroring sklearn's
// default token pattern closely enough for block-page boilerplate.
//
// Tokens containing digits collapse to a placeholder: ray IDs,
// reference numbers, incident IDs, client addresses and cache-buster
// nonces are the parts of a block page that vary per request, and
// collapsing them keeps two renders of the same template near-identical
// regardless of the corpus's IDF profile. (Jones et al.'s page
// fingerprinting does the equivalent masking.)
func Tokenize(doc string) []string {
	var tokens []string
	sc := tokenScanner{doc: doc}
	for tok, ok := sc.next(); ok; tok, ok = sc.next() {
		tokens = append(tokens, string(tok))
	}
	return tokens
}

// tokenScanner is the one tokenizer behind Tokenize, Fit and Transform:
// next returns a document's next token, lower-cased into a buffer the
// following call reuses, or false at the end of the document.
type tokenScanner struct {
	doc string
	i   int
	buf []byte
}

func (sc *tokenScanner) next() ([]byte, bool) {
	for sc.i < len(sc.doc) {
		tok, digit := sc.buf[:0], false
		for ; sc.i < len(sc.doc); sc.i++ {
			c := sc.doc[sc.i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			} else if c >= '0' && c <= '9' {
				digit = true
			} else if c < 'a' || c > 'z' {
				break
			}
			tok = append(tok, c)
		}
		sc.i++ // step over the separator
		sc.buf = tok
		if len(tok) >= 2 { // sklearn's default drops 1-char tokens
			if digit {
				sc.buf = append(tok[:0], '0')
			}
			return sc.buf, true
		}
	}
	return nil, false
}

// maxDocTokens caps the tokens considered per document: block pages are
// short, and capping keeps accidental megabyte origin pages from
// dominating fitting time.
const maxDocTokens = 4000

// Vectorizer fits a vocabulary with document frequencies over a corpus
// and transforms documents into TF-IDF vectors (smooth IDF, L2 norm —
// sklearn's TfidfVectorizer defaults). A document's terms are the
// 1-grams of its first maxDocTokens tokens, then their 2-grams; term
// ids count up in the order terms first appear in the corpus.
type Vectorizer struct {
	vocab map[string]int32 // term → id
	terms []string         // id → term
	// bigrams interns each 2-gram under its two 1-gram ids, so a
	// document's 2-grams are looked up without building their strings.
	bigrams map[uint64]int32
	idf     []float64
}

// grams appends the ids of doc's terms to ids. With grow set an unseen
// term joins the vocabulary; otherwise it is left out (a -1 holds an
// unseen 1-gram's place until its 2-grams are formed).
func (v *Vectorizer) grams(doc string, grow bool, ids []int32) []int32 {
	sc := tokenScanner{doc: doc}
	for n := 0; n < maxDocTokens; n++ {
		tok, ok := sc.next()
		if !ok {
			break
		}
		id, seen := v.vocab[string(tok)]
		if !seen {
			id = -1
			if grow {
				id = v.add(string(tok))
			}
		}
		ids = append(ids, id)
	}
	for i, n := 0, len(ids); i+1 < n; i++ {
		a, b := ids[i], ids[i+1]
		if a < 0 || b < 0 {
			continue
		}
		key := uint64(a)<<32 | uint64(b)
		id, seen := v.bigrams[key]
		if !seen {
			if !grow {
				continue
			}
			id = v.add(v.terms[a] + " " + v.terms[b])
			v.bigrams[key] = id
		}
		ids = append(ids, id)
	}
	return ids
}

func (v *Vectorizer) add(term string) int32 {
	id := int32(len(v.terms))
	v.vocab[term] = id
	v.terms = append(v.terms, term)
	return id
}

// tally counts a document's term ids into a vector whose Val holds each
// term's count. It reuses ids as scratch space; counts is zeroed
// scratch space indexed by term id, and is left zeroed.
func tally(ids, counts []int32) Vector {
	distinct := ids[:0]
	for _, id := range ids {
		if id >= 0 {
			if counts[id] == 0 {
				distinct = append(distinct, id)
			}
			counts[id]++
		}
	}
	idx := slices.Clone(distinct)
	slices.Sort(idx)
	val := make([]float32, len(idx))
	for i, id := range idx {
		val[i], counts[id] = float32(counts[id]), 0
	}
	return Vector{Idx: idx, Val: val}
}

// fit learns the vocabulary and document frequencies from docs. It
// returns each document's tally and the index of its first
// byte-identical copy: each distinct document is tokenized once, and a
// repeat shares its first copy's tally.
func fit(docs []string) (v *Vectorizer, tallies []Vector, first []int) {
	v = &Vectorizer{vocab: make(map[string]int32), bigrams: make(map[uint64]int32)}
	tallies, first = make([]Vector, len(docs)), make([]int, len(docs))
	seen := make(map[string]int, len(docs))
	var ids, counts []int32
	for d, doc := range docs {
		f, dup := seen[doc]
		if !dup {
			f, seen[doc] = d, d
			ids = v.grams(doc, true, ids[:0])
			counts = append(counts, make([]int32, len(v.terms)-len(counts))...)
			tallies[d] = tally(ids, counts)
		}
		tallies[d], first[d] = tallies[f], f
	}
	df := make([]int32, len(v.terms))
	for _, t := range tallies {
		for _, id := range t.Idx {
			df[id]++
		}
	}
	v.idf = make([]float64, len(df))
	for i, d := range df {
		// Smooth IDF: ln((1+n)/(1+df)) + 1.
		v.idf[i] = math.Log(float64(1+len(docs))/float64(1+d)) + 1
	}
	return v, tallies, first
}

// Fit learns the vocabulary and document frequencies from docs.
func Fit(docs []string) *Vectorizer {
	v, _, _ := fit(docs)
	return v
}

// VocabSize returns the number of fitted terms.
func (v *Vectorizer) VocabSize() int { return len(v.terms) }

// weigh turns a tally's counts into L2-normalized TF-IDF weights, in
// place.
func (v *Vectorizer) weigh(t Vector) Vector {
	var norm float64
	for i, id := range t.Idx {
		w := float64(t.Val[i]) * v.idf[id]
		t.Val[i] = float32(w)
		norm += w * w
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range t.Val {
			t.Val[i] *= inv
		}
	}
	return t
}

// Transform converts one document into a TF-IDF vector using the fitted
// vocabulary; unseen terms are ignored (sklearn behaviour).
func (v *Vectorizer) Transform(doc string) Vector {
	return v.weigh(tally(v.grams(doc, false, nil), make([]int32, len(v.terms))))
}

// FitTransform fits on docs and returns their vectors, equal to Fit
// followed by Transform of each document. Each distinct document is
// tokenized and weighed once: byte-identical documents share one
// Vector.
func FitTransform(docs []string) (*Vectorizer, []Vector) {
	v, vecs, first := fit(docs)
	for d, f := range first {
		if f == d {
			vecs[d] = v.weigh(vecs[d])
		} else {
			vecs[d] = vecs[f]
		}
	}
	return v, vecs
}
