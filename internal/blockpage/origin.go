package blockpage

import (
	"math"
	"strconv"
	"strings"

	"geoblock/internal/stats"
)

// OriginSite renders the "real" page of one domain. Page length is the
// property the paper's outlier heuristic keys on, so the generator
// controls it explicitly: each site has a characteristic base length
// drawn from a heavy-tailed distribution (most sites tens of kilobytes,
// a meaningful minority short enough to be confusable with block
// pages), and each render jitters around it to model dynamic content —
// ads, recommendation modules, per-request tokens — exactly the noise
// that makes a fixed raw-length comparison unreliable (§4.1.5).
//
// Two properties make the type cheap enough for a million-domain world:
// Length(seed) is O(1) and allocation-free (the serving layer uses it
// for Content-Length and only materializes bodies a client reads), and
// the struct holds no cached page — Render rebuilds the identical bytes
// on demand, into one allocation of exactly Length(seed) bytes.
type OriginSite struct {
	Domain  string
	Title   string
	BaseLen int     // characteristic body length in bytes
	Jitter  float64 // relative spread of dynamic content per render

	wordSeed  uint64
	headLen   int // rendered length of the fixed page head
	footLen   int // rendered length of the fixed page foot
	fillerLen int // exact length of the static filler body
}

// NewOriginSite builds the origin generator for domain. The base length
// is heavy-tailed: median in the tens of kilobytes with ~10% of sites
// under 3 KB. rng should be a fork dedicated to this domain so that the
// site is identical across runs.
func NewOriginSite(domain string, rng *stats.RNG) *OriginSite {
	base := int(2000 * expScale(rng))
	if base < 600 {
		base = 600
	}
	s := &OriginSite{
		Domain:   domain,
		Title:    siteTitle(domain, rng),
		BaseLen:  base,
		Jitter:   0.01 + 0.03*rng.Float64(),
		wordSeed: rng.Uint64(),
	}
	var pb [24]byte
	price := string(appendPrice(pb[:0], s.basePrice()))
	s.headLen = fillLen(originHead, s.Title, s.Domain, checkoutLink, price, price)
	s.footLen = fillLen(originFoot, s.Domain)
	s.fillerLen = int(float64(base)*0.85) - s.headLen - s.footLen
	if s.fillerLen < minFiller {
		s.fillerLen = minFiller
	}
	return s
}

// expScale draws a multiplier with a heavy right tail, giving the
// desired page-length distribution when multiplied by 2 KB.
func expScale(rng *stats.RNG) float64 {
	v := rng.NormFloat64()*0.9 + 2.2 // lognormal-ish parameters
	s := 1.0
	for i := 0; i < int(v*2); i++ {
		s *= 1.4
	}
	if s > 120 {
		s = 120
	}
	if s < 0.3 {
		s = 0.3
	}
	return s
}

var wordBank = strings.Fields(`
service product discover explore featured latest update community support
account pricing enterprise solution platform global customer review news
analytics insight market research report partner develop integrate secure
deliver experience network cloud digital content stream device mobile
search result category collection popular trending season offer deal
shipping return policy privacy terms contact about career press investor
blog story guide tutorial resource download documentation release version
team mission value quality trust innovation design build launch scale
performance reliability availability region language currency payment
checkout basket wishlist member subscribe newsletter event webinar forum
`)

func siteTitle(domain string, rng *stats.RNG) string {
	base := domain
	if i := strings.IndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	w1 := wordBank[rng.Intn(len(wordBank))]
	w2 := wordBank[rng.Intn(len(wordBank))]
	var b strings.Builder
	b.Grow(len(base) + len(" — ") + len(w1) + len(" ") + len(w2))
	writeTitle(&b, base)
	b.WriteString(" — ")
	writeTitle(&b, w1)
	b.WriteByte(' ')
	b.WriteString(w2)
	return b.String()
}

// PageVariant selects the application-layer variant of the page: the
// §7.3 geo-discrimination phenomenon where the page loads fine but
// features are removed or prices raised for some countries.
type PageVariant struct {
	// Restricted removes the commerce features (checkout) and inserts a
	// region notice.
	Restricted bool
	// PriceFactor multiplies the displayed price; 0 means 1.0. The
	// rendered price has a fixed width, so price discrimination never
	// changes page length — invisible to the length heuristic.
	PriceFactor float64
}

// basePrice derives the site's deterministic base price.
func (s *OriginSite) basePrice() float64 {
	return 20 + float64(s.wordSeed%38000)/100
}

// factor is the variant's price multiplier.
func (v PageVariant) factor() float64 {
	if v.PriceFactor == 0 {
		return 1
	}
	return v.PriceFactor
}

// priceWidth is the rendered width of a price (%09.2f).
const priceWidth = 9

// Price returns the displayed price for a variant (fixed width).
func (s *OriginSite) Price(v PageVariant) string {
	return string(appendPrice(nil, s.basePrice()*v.factor()))
}

// appendPrice appends p as fmt's %09.2f writes it: zero-padded to
// priceWidth after any minus sign, except that NaN and ±Inf are padded
// with spaces.
func appendPrice(dst []byte, p float64) []byte {
	var nb [24]byte
	num := strconv.AppendFloat(nb[:0], p, 'f', 2, 64)
	pad, n := byte('0'), len(num)
	if math.IsNaN(p) || math.IsInf(p, 0) {
		pad = ' '
	} else if num[0] == '-' {
		dst = append(dst, '-')
		num = num[1:]
	}
	for ; n < priceWidth; n++ {
		dst = append(dst, pad)
	}
	return append(dst, num...)
}

// The head's commerce slot: the checkout link, or in the restricted
// variant the region notice that replaces it.
const (
	checkoutLink = `<a href="/checkout">Checkout</a>`
	regionNotice = `<span class="region-notice">Checkout is not available in your region.</span>`
)

// originHead is the page head, filled with the site's title, its
// domain, the commerce slot and the price twice; originFoot is the
// page foot, filled with the domain.
const (
	originHead = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>%s</title>
<link rel="stylesheet" href="/assets/site.css">
<script src="/assets/app.js" defer></script>
</head>
<body>
<header><nav><a href="/">%s</a> <a href="/products">Products</a> %s <a href="/about">About</a> <a href="/contact">Contact</a></nav></header>
<p class="offer">Today's featured offer: <span class="price" data-amount="%s">USD %s</span></p>
<main>
`
	originFoot = `</main>
<footer><p>&copy; %s. All rights reserved. <a href="/privacy">Privacy</a> <a href="/terms">Terms</a></p></footer>
</body>
</html>
`
)

const (
	dynOpen   = "<section id=\"dynamic\"><!--"
	dynClose  = "--></section>\n"
	minFiller = 64
)

// dynamicLen returns the byte length of the per-request dynamic section
// for sampleSeed. It is an O(1) pure function.
func (s *OriginSite) dynamicLen(sampleSeed uint64) int {
	rng := stats.NewRNG(s.wordSeed ^ stats.Mix64(sampleSeed))
	n := int(float64(s.BaseLen) * 0.15 * (1 + s.Jitter/0.15*rng.NormFloat64()))
	if n < 0 {
		n = 0
	}
	return len(dynOpen) + n + len(dynClose)
}

// Length returns the exact body length Render(sampleSeed) will produce,
// without rendering. The serving layer uses this as Content-Length.
func (s *OriginSite) Length(sampleSeed uint64) int {
	return s.headLen + s.fillerLen + s.footLen + s.dynamicLen(sampleSeed)
}

// VariantLength is Length for an application-layer variant, and just
// as cheap: a variant's head differs from the plain head only by the
// restricted notice and by the two prices, whose fixed width holds
// for any price below a million.
func (s *OriginSite) VariantLength(sampleSeed uint64, v PageVariant) int {
	n := s.Length(sampleSeed)
	if v.Restricted {
		n += len(regionNotice) - len(checkoutLink)
	}
	if p := s.basePrice() * v.factor(); !(p > -99999 && p < 999999) {
		var pb [24]byte
		n += 2 * (len(appendPrice(pb[:0], p)) - priceWidth)
	}
	return n
}

// Render produces the page for one request. The same (site, sampleSeed)
// pair always produces the same bytes, and len(result) ==
// Length(sampleSeed).
func (s *OriginSite) Render(sampleSeed uint64) string {
	return s.RenderVariant(sampleSeed, PageVariant{})
}

// RenderVariant produces an application-layer variant of the page;
// len(result) == VariantLength(sampleSeed, v).
func (s *OriginSite) RenderVariant(sampleSeed uint64, v PageVariant) string {
	commerce := checkoutLink
	if v.Restricted {
		commerce = regionNotice
	}
	var pb [24]byte
	price := string(appendPrice(pb[:0], s.basePrice()*v.factor()))

	var b strings.Builder
	b.Grow(s.VariantLength(sampleSeed, v))
	writeFill(&b, originHead, s.Title, s.Domain, commerce, price, price)
	writeExact(&b, stats.NewRNG(s.wordSeed), s.fillerLen)
	writeFill(&b, originFoot, s.Domain)

	dyn := s.dynamicLen(sampleSeed) - len(dynOpen) - len(dynClose)
	b.WriteString(dynOpen)
	rng := stats.NewRNG(s.wordSeed ^ stats.Mix64(sampleSeed) ^ 0x5bd1e995)
	var tok [len(" slot=") + 8]byte
	for dyn > 0 {
		slot := AppendHex(append(tok[:0], " slot="...), uint64(uint32(rng.Uint64())), 8)
		slot = slot[:min(len(slot), dyn)]
		b.Write(slot)
		dyn -= len(slot)
	}
	b.WriteString(dynClose)
	return b.String()
}

// writeExact emits exactly budget bytes of paragraph filler: whole
// word-built paragraphs while room remains, then a padded closer.
func writeExact(b *strings.Builder, rng *stats.RNG, budget int) {
	const wrapper = 9 // len("<p>") + len(".</p>\n")
	written := 0
	var words [32]string
	for budget-written > 240 {
		n := 8 + rng.Intn(25)
		size := wrapper + n - 1
		for i := 0; i < n; i++ {
			words[i] = wordBank[rng.Intn(len(wordBank))]
			size += len(words[i])
		}
		if written+size > budget {
			break // a whole paragraph would overrun the budget: pad instead
		}
		b.WriteString("<p>")
		for i, w := range words[:n] {
			if i > 0 {
				b.WriteByte(' ')
				b.WriteString(w)
			} else {
				writeTitle(b, w)
			}
		}
		b.WriteString(".</p>\n")
		written += size
	}
	// Pad the remainder exactly.
	rem := budget - written
	if rem < wrapper {
		for i := 0; i < rem; i++ {
			b.WriteByte(' ')
		}
		return
	}
	b.WriteString("<p>")
	for i := 0; i < rem-wrapper; i++ {
		if i%7 == 6 {
			b.WriteByte(' ')
		} else {
			b.WriteByte("abcdefghijklmnop"[rng.Intn(16)])
		}
	}
	b.WriteString(".</p>\n")
}

// writeTitle writes w to b with its first byte upper-cased when that
// is an ASCII lower-case letter.
func writeTitle(b *strings.Builder, w string) {
	if w != "" && 'a' <= w[0] && w[0] <= 'z' {
		b.WriteByte(w[0] - 'a' + 'A')
		w = w[1:]
	}
	b.WriteString(w)
}
