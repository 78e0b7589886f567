// Package fingerprint is the production block-page classifier: the
// signatures the paper's semi-automated process extracted from its 119
// manually examined clusters (§4.1.3), compiled into a matcher that
// labels a response body with its block-page class.
//
// The classifier is evaluated against the template ground truth
// (blockpage.Matches) in tests; in the pipeline it is what turns raw
// resampled bodies into geoblocking observations.
package fingerprint

import (
	"geoblock/internal/blockpage"
)

// Classifier matches bodies against an ordered signature set: one
// page class per signature, recognized when every one of its tokens
// appears in the whitespace-normalized body. It holds no scratch
// space, so one Classifier is safe for concurrent use.
type Classifier struct {
	kinds []blockpage.Kind
	toks  [][][]byte // each kind's tokens, compiled for blockpage.Match
}

// NewClassifier compiles the default signature set: one signature per
// fingerprinted class of Table 2, plus the censorship page (which the
// pipeline must recognize to *exclude*, not to report). Each class's
// tokens are normalized once, here.
func NewClassifier() *Classifier {
	c := &Classifier{kinds: append(blockpage.Kinds(), blockpage.Censorship, blockpage.Legal451)}
	for _, k := range c.kinds {
		c.toks = append(c.toks, blockpage.Tokens(k))
	}
	return c
}

// Classify labels body, returning KindNone when nothing matches.
// The body is normalized once and matched in signature order, with no
// allocation for a block page; signatures are mutually exclusive by
// construction (verified by tests against every template).
func (c *Classifier) Classify(body string) blockpage.Kind {
	if i := blockpage.Match(body, c.toks); i >= 0 {
		return c.kinds[i]
	}
	return blockpage.KindNone
}

// IsBlockPage reports whether body matches any fingerprint at all.
func (c *Classifier) IsBlockPage(body string) bool {
	return c.Classify(body) != blockpage.KindNone
}

// IsExplicitGeoblock reports whether body is one of the five explicit
// geoblocking pages (§4.1.3): Cloudflare, Amazon CloudFront, Google App
// Engine, Baidu, Airbnb.
func (c *Classifier) IsExplicitGeoblock(body string) (blockpage.Kind, bool) {
	k := c.Classify(body)
	return k, k.Explicit()
}
