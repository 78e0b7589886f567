package applayer

import (
	"fmt"
	"testing"
	"testing/quick"

	"geoblock/internal/blockpage"
	"geoblock/internal/stats"
)

func TestExtractLinksAndPrice(t *testing.T) {
	body := `<html><body>
<a href="/checkout">Checkout</a> <a href="/about">About</a>
<a href="https://other.example/x">external</a>
<a href="/assets/style.css">asset</a>
<span class="price" data-amount="000123.45">USD 123.45</span>
</body></html>`
	o := Extract(body)
	if len(o.Links) != 2 || o.Links[0] != "/about" || o.Links[1] != "/checkout" {
		t.Fatalf("links = %v", o.Links)
	}
	if !o.HasPrice || o.Price != 123.45 {
		t.Fatalf("price = %v %v", o.Price, o.HasPrice)
	}
	if o.RegionNotices != 0 {
		t.Fatal("no notices expected")
	}
}

func TestExtractNotices(t *testing.T) {
	o := Extract(`<span class="region-notice">Checkout is not available in your region.</span>`)
	if o.RegionNotices != 1 {
		t.Fatalf("notices = %d", o.RegionNotices)
	}
}

func TestCompareDetectsRemovedFeature(t *testing.T) {
	ref := Extract(`<a href="/checkout">c</a><a href="/about">a</a>`)
	target := Extract(`<a href="/about">a</a><span class="region-notice">nope</span>`)
	d := Compare(ref, target)
	if len(d.MissingLinks) != 1 || d.MissingLinks[0] != "/checkout" {
		t.Fatalf("missing = %v", d.MissingLinks)
	}
	if !d.NoticeAdded || !d.Discriminates() {
		t.Fatal("discrimination not flagged")
	}
}

func TestCompareIdenticalPages(t *testing.T) {
	o := Extract(`<a href="/checkout">c</a><span data-amount="000100.00"></span>`)
	d := Compare(o, o)
	if d.Discriminates() {
		t.Fatalf("identical pages flagged: %+v", d)
	}
	if d.PriceRatio != 1 {
		t.Fatalf("price ratio = %v", d.PriceRatio)
	}
}

func TestComparePriceMarkup(t *testing.T) {
	ref := Extract(`<span data-amount="000100.00"></span>`)
	up := Extract(`<span data-amount="000129.00"></span>`)
	d := Compare(ref, up)
	if d.PriceRatio < 1.28 || d.PriceRatio > 1.30 {
		t.Fatalf("ratio = %v", d.PriceRatio)
	}
	if !d.Discriminates() {
		t.Fatal("markup not flagged")
	}
	// Tiny fluctuations are tolerated.
	near := Extract(`<span data-amount="000100.99"></span>`)
	if Compare(ref, near).Discriminates() {
		t.Fatal("1% fluctuation should not flag")
	}
}

func TestOriginVariantsRoundTrip(t *testing.T) {
	// End to end against the real origin renderer: the restricted
	// variant must be detectable, the base variant must not.
	site := blockpage.NewOriginSite("shop.example.com", stats.NewRNG(9))
	base := Extract(site.RenderVariant(1, blockpage.PageVariant{}))
	restricted := Extract(site.RenderVariant(1, blockpage.PageVariant{Restricted: true}))
	marked := Extract(site.RenderVariant(1, blockpage.PageVariant{PriceFactor: 1.4}))

	d := Compare(base, restricted)
	if !d.Discriminates() || !d.NoticeAdded {
		t.Fatalf("restricted variant not detected: %+v", d)
	}
	found := false
	for _, l := range d.MissingLinks {
		if l == "/checkout" {
			found = true
		}
	}
	if !found {
		t.Fatalf("checkout removal not detected: %v", d.MissingLinks)
	}

	d = Compare(base, marked)
	if !d.Discriminates() || d.PriceRatio < 1.35 || d.PriceRatio > 1.45 {
		t.Fatalf("price markup not detected: %+v", d)
	}

	// Base pages from different sample seeds must NOT discriminate
	// (dynamic content varies, structure does not).
	other := Extract(site.RenderVariant(2, blockpage.PageVariant{}))
	if Compare(base, other).Discriminates() {
		t.Fatal("dynamic variation misdetected as discrimination")
	}
}

// TestVariantLengthConsistency holds VariantLength, which the edge
// serves as Content-Length without rendering, to the rendered length
// across many sites, sample seeds, both commerce variants and the
// whole markup range the world draws from (1.1–1.6), plus factors far
// outside it.
func TestVariantLengthConsistency(t *testing.T) {
	factors := []float64{0, 1, 1.6, 2.5, 250, 5000, -0.5}
	for f := 1.1; f <= 1.6; f += 0.01 {
		factors = append(factors, f)
	}
	rng := stats.NewRNG(3)
	for i := 0; i < 60; i++ {
		site := blockpage.NewOriginSite(fmt.Sprintf("len%d.example.com", i), rng.Fork(fmt.Sprint(i)))
		for seed := uint64(0); seed < 4; seed++ {
			plain := site.VariantLength(seed, blockpage.PageVariant{})
			if plain != site.Length(seed) {
				t.Fatalf("site %d seed %d: VariantLength %d != Length %d", i, seed, plain, site.Length(seed))
			}
			for _, restricted := range []bool{false, true} {
				for _, f := range factors {
					v := blockpage.PageVariant{Restricted: restricted, PriceFactor: f}
					if got, want := site.VariantLength(seed, v), len(site.RenderVariant(seed, v)); got != want {
						t.Fatalf("site %d seed %d variant %+v: VariantLength %d, rendered %d", i, seed, v, got, want)
					}
					// Inside the world's markup range the fixed-width
					// price keeps discrimination invisible to length.
					if f >= 1.1 && f <= 1.6 && !restricted && site.VariantLength(seed, v) != plain {
						t.Fatalf("site %d: markup %.2f changed page length; the length heuristic would see it", i, f)
					}
				}
			}
		}
	}
}

func TestExtractNeverPanicsProperty(t *testing.T) {
	f := func(body string) bool {
		o := Extract(body)
		for i := 1; i < len(o.Links); i++ {
			if o.Links[i] < o.Links[i-1] {
				return false // links must stay sorted
			}
		}
		return o.RegionNotices >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractMalformedHTML(t *testing.T) {
	cases := []string{
		`<a href="`,
		`href="`,
		`data-amount="`,
		`data-amount="notanumber"`,
		`<a href="/x`,
		"",
		`href="//protocol-relative.example/x"`,
	}
	for _, body := range cases {
		o := Extract(body) // must not panic
		if len(o.Links) != 0 && body != `<a href="/x` {
			t.Errorf("unexpected links from %q: %v", body, o.Links)
		}
	}
}

func TestCompareSelfNeverDiscriminates(t *testing.T) {
	f := func(body string) bool {
		o := Extract(body)
		return !Compare(o, o).Discriminates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
