package blockpage

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// allKinds is every class Matches accepts (KindNone has no template and
// no signature by design).
func allKinds() []Kind {
	return append(Kinds(), Censorship, Legal451)
}

// FuzzMatchSignature drives the ground-truth matcher with arbitrary
// bodies, seeded with every page-class fingerprint and its rendered
// template. Matching must never panic, must reject an empty body for
// every class, must survive megabyte-scale junk, and must be invariant
// under whitespace reformatting (the property AppendNormalized
// promises).
func FuzzMatchSignature(f *testing.F) {
	v := Vars{
		Domain: "example.com", Path: "/shop", ClientIP: "203.0.113.9",
		CountryName: "Iran", RayID: "4d6f636b526179", Nonce: "n0nce42",
	}
	for _, k := range allKinds() {
		f.Add(Render(k, v))
		f.Add(Signature(k))
	}
	f.Add("")
	f.Add("  \t\n  ")
	f.Add("<html><body>hello world</body></html>")
	f.Add(strings.Repeat("<div>403 Forbidden Cloudflare Ray ID: padding</div>\n", 4096))

	f.Fuzz(func(t *testing.T, body string) {
		for _, k := range allKinds() {
			got := Matches(k, body)
			if got && strings.TrimSpace(body) == "" {
				t.Fatalf("%v matched a blank body", k)
			}
			if Matches(k, " \t\n "+body+" \n\t ") != got {
				t.Errorf("%v verdict changed under whitespace padding", k)
			}
		}
	})
}

// TestMatchesGroundTruth pins the classifier's two anchor properties
// outside the fuzzer: every rendered template matches its own class,
// and no class matches another's bare signature by accident (signatures
// are unique by construction).
func TestMatchesGroundTruth(t *testing.T) {
	v := Vars{Domain: "site.io", ClientIP: "198.51.100.4", CountryName: "Syria", RayID: "deadbeef", Nonce: "abc"}
	for _, k := range allKinds() {
		if !Matches(k, Render(k, v)) {
			t.Errorf("%v does not match its own rendering", k)
		}
	}
	for _, k := range allKinds() {
		for _, other := range allKinds() {
			if other == k {
				continue
			}
			if Matches(other, Signature(k)) {
				t.Errorf("signature of %v matches class %v", k, other)
			}
		}
	}
}

// TestMatchesOversizedBody: a signature buried in megabytes of padding
// still matches; megabytes of padding alone never do.
func TestMatchesOversizedBody(t *testing.T) {
	pad := strings.Repeat("<p>lorem ipsum dolor sit amet</p>\n", 1<<15) // ~1MB
	for _, k := range allKinds() {
		if Matches(k, pad) {
			t.Errorf("%v matched pure padding", k)
		}
	}
	v := Vars{Domain: "big.example", CountryName: "Cuba", RayID: "ff00ff", ClientIP: "192.0.2.1"}
	body := pad + Render(Cloudflare, v) + pad
	if !Matches(Cloudflare, body) {
		t.Error("Cloudflare page lost inside an oversized body")
	}
}

// pageFormats lists every template fill substitutes into.
var pageFormats = []string{
	akamaiPage, cloudflarePage, appEnginePage, cloudflareCaptchaPage,
	cloudflareJSPage, cloudFrontPage, baiduPage, baiduCaptchaPage,
	incapsulaPage, soastaPage, airbnbPage, distilPage, varnishPage,
	censorshipPage, legal451Page,
	maintenancePage, emptyAppPage, parkedPage,
	originHead, originFoot,
}

// FuzzFormatters holds the page writers to fmt on fuzzed arguments:
// fill and fillLen to fmt.Sprintf over every template, appendPrice to
// %09.2f (negative, huge, NaN and infinite prices included), and
// AppendHex to %0*x.
func FuzzFormatters(f *testing.F) {
	f.Add("shop.example.com", "", "203.113.255.254", "Côte d’Ivoire", "44bfa65f2a8c2b91", 194.45, uint64(0xf3a9c1d0), uint8(8))
	f.Add("100%.example", "%s%%d", "%!", "\xff\xfe", "", -0.001, uint64(0), uint8(0))
	f.Add("", "", "", "", "", 999999.995, uint64(math.MaxUint64), uint8(16))
	f.Add("a", "b", "c", "d", "e", -99999.5, uint64(0xabc), uint8(6))
	f.Add("a", "b", "c", "d", "e", 1e300, uint64(1), uint8(23))
	f.Add("a", "b", "c", "d", "e", math.Inf(-1), uint64(1), uint8(1))
	f.Add("a", "b", "c", "d", "e", math.NaN(), uint64(1), uint8(1))

	f.Fuzz(func(t *testing.T, a, b, c, d, e string, p float64, h uint64, width uint8) {
		args := []string{a, b, c, d, e}
		for i, format := range pageFormats {
			n := strings.Count(strings.ReplaceAll(format, "%%", ""), "%s")
			strs, anys := make([]string, n), make([]any, n)
			for j := range strs {
				strs[j] = args[j%len(args)]
				anys[j] = strs[j]
			}
			want := fmt.Sprintf(format, anys...)
			if got := fill(format, strs...); got != want {
				t.Fatalf("format %d: fill differs from fmt.Sprintf:\n got %q\nwant %q", i, got, want)
			}
			if got := fillLen(format, strs...); got != len(want) {
				t.Fatalf("format %d: fillLen %d, fmt.Sprintf wrote %d bytes", i, got, len(want))
			}
		}
		if got, want := string(appendPrice(nil, p)), fmt.Sprintf("%09.2f", p); got != want {
			t.Fatalf("appendPrice(%v) = %q, %%09.2f writes %q", p, got, want)
		}
		w := int(width % 24)
		if got, want := string(AppendHex([]byte("x"), h, w)), "x"+fmt.Sprintf("%0*x", w, h); got != want {
			t.Fatalf("AppendHex(%#x, %d) = %q, %%0*x writes %q", h, w, got, want)
		}
	})
}
