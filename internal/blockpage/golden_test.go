package blockpage

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geoblock/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the pages golden file")

// goldenVars are the request fields the golden renders every block
// page with: an empty path (rendered as "/"), a '%' and fmt verbs in
// the domain and path, a multi-byte country name, a 15-character
// address, and every field empty.
var goldenVars = []Vars{
	{Domain: "shop.example.com", ClientIP: "203.113.255.254", CountryName: "Iran", RayID: "44bfa65f2a8c2b91", Nonce: "f3a9c1d0"},
	{Domain: "100%.example", Path: "/a%sb?q=%%d", ClientIP: "5.6.7.8", CountryName: "Côte d’Ivoire", RayID: "0000000000000000", Nonce: "00000000"},
	{Domain: "Mixed-Case.Example.NET", Path: "/world/today", ClientIP: "198.51.100.4", CountryName: "Türkiye", RayID: "ffffffffffffffff", Nonce: "0a1b2c"},
	{},
}

// goldenVariants are the origin variants the golden renders: plain,
// restricted, a marked-up price, a price past 999999.99 (wider than
// priceWidth), and a restricted page with a negative price.
var goldenVariants = []PageVariant{
	{},
	{Restricted: true},
	{PriceFactor: 1.37},
	{PriceFactor: 1e5},
	{Restricted: true, PriceFactor: -2.5},
}

// goldenPages lists every page the golden pins, one line each: its
// label, length and SHA-256. Origin lines also check that the page is
// VariantLength bytes long, and price lines carry the price itself.
func goldenPages(t *testing.T) string {
	var b strings.Builder
	line := func(label, body string) {
		fmt.Fprintf(&b, "%s len=%d sha256=%x\n", label, len(body), sha256.Sum256([]byte(body)))
	}
	for i, v := range goldenVars {
		for _, k := range allKinds() {
			line(fmt.Sprintf("block %q vars=%d", k, i), Render(k, v))
		}
	}
	for _, j := range []struct{ domain, nonce string }{
		{"parked.example", "x9a1b2"}, {"100%.example", ""}, {"", "%s%%d"},
	} {
		for _, k := range JunkKinds() {
			line(fmt.Sprintf("junk %d %q %q", k, j.domain, j.nonce), RenderJunk(k, j.domain, j.nonce))
		}
	}
	rng := stats.NewRNG(28)
	for _, name := range []string{"shop.example.com", "a.io", "100%.example", "nodot"} {
		site := NewOriginSite(name, rng.Fork(name))
		fmt.Fprintf(&b, "site %q title %q\n", name, site.Title)
		for vi, v := range goldenVariants {
			fmt.Fprintf(&b, "price %q variant=%d %q\n", name, vi, site.Price(v))
			for _, seed := range []uint64{0, 7, 1 << 63} {
				body := site.RenderVariant(seed, v)
				if n := site.VariantLength(seed, v); n != len(body) {
					t.Errorf("%s seed %d variant %d: VariantLength %d, rendered %d bytes", name, seed, vi, n, len(body))
				}
				line(fmt.Sprintf("origin %q seed=%d variant=%d", name, seed, vi), body)
			}
		}
	}
	return b.String()
}

// TestPagesGolden pins every page the simulated web serves byte for
// byte: each block-page kind over goldenVars, each junk page, and
// origin pages over several sites, seeds and goldenVariants.
func TestPagesGolden(t *testing.T) {
	got := goldenPages(t)
	path := filepath.Join("testdata", "pages.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
