package blockpage

import (
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
