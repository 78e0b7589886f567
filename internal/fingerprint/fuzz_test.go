package fingerprint

import (
	"strings"
	"testing"

	"geoblock/internal/blockpage"
)

// oracleClassify is Classify spelled the slow, obvious way: the first
// signature whose tokens all appear in strings.Join(strings.Fields(body), " ").
func oracleClassify(body string) blockpage.Kind {
	norm := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	nb := norm(body)
	for _, k := range append(blockpage.Kinds(), blockpage.Censorship, blockpage.Legal451) {
		match := strings.Contains(nb, norm(blockpage.Signature(k)))
		for _, t := range blockpage.DisambiguatingTokens(k) {
			match = match && strings.Contains(nb, norm(t))
		}
		if match {
			return k
		}
	}
	return blockpage.KindNone
}

// FuzzClassify checks the allocation-free classifier against the
// oracle, and the shared normalizer against strings.Fields, on
// arbitrary bodies: every template render, renders reflowed with
// Unicode spaces (U+0085, U+00A0, U+2028, U+3000) and with invalid
// UTF-8, and a body larger than blockpage.Match's 4 KiB stack buffer.
func FuzzClassify(f *testing.F) {
	for _, k := range append(blockpage.Kinds(), blockpage.Censorship, blockpage.Legal451) {
		body := blockpage.Render(k, vars(int(k)))
		f.Add(body)
		f.Add(strings.ReplaceAll(body, "\n", "\u2028"))
		f.Add(strings.ReplaceAll(body, " ", "\u00a0 "))
	}
	cf := blockpage.Render(blockpage.Cloudflare, vars(7))
	f.Add(strings.ReplaceAll(cf, " ", "\u0085 \u3000"))
	f.Add(strings.ReplaceAll(cf, " ", "\xff"))
	f.Add(strings.ReplaceAll(cf, "\n", " \xc2"))
	f.Add("\xc2\xa0\xe2\x80\xa8has banned the country or region your IP address is in\x85")
	f.Add(strings.Repeat("<p>padding</p>\n", 1<<10) + cf)
	f.Add("")
	f.Add(" \t\n\v\f\r ")

	cls := NewClassifier()
	f.Fuzz(func(t *testing.T, body string) {
		if got, want := string(blockpage.AppendNormalized(nil, body)), strings.Join(strings.Fields(body), " "); got != want {
			t.Fatalf("AppendNormalized(%q) = %q, want %q", body, got, want)
		}
		if got, want := cls.Classify(body), oracleClassify(body); got != want {
			t.Fatalf("Classify = %v, oracle %v", got, want)
		}
	})
}

// TestClassifyAllocs: classifying a rendered page allocates nothing.
func TestClassifyAllocs(t *testing.T) {
	cls := NewClassifier()
	for _, k := range append(blockpage.Kinds(), blockpage.Censorship, blockpage.Legal451) {
		body := blockpage.Render(k, vars(2))
		if n := testing.AllocsPerRun(100, func() { cls.Classify(body) }); n != 0 {
			t.Errorf("Classify(%v page) allocates %v times", k, n)
		}
	}
}
