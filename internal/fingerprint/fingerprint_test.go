package fingerprint

import (
	"fmt"
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/stats"
)

func vars(i int) blockpage.Vars {
	return blockpage.Vars{
		Domain:      fmt.Sprintf("dom%d.example", i),
		ClientIP:    fmt.Sprintf("10.1.%d.%d", i%200, (i*3)%200),
		CountryName: []string{"Iran", "Syria", "Cuba", "Russia", "China"}[i%5],
		RayID:       fmt.Sprintf("%016x", uint64(i)*2654435761),
		Nonce:       fmt.Sprintf("%08x", i*40503),
	}
}

func TestClassifyEveryTemplate(t *testing.T) {
	c := NewClassifier()
	for _, k := range append(blockpage.Kinds(), blockpage.Censorship, blockpage.Legal451) {
		for i := 0; i < 10; i++ {
			body := blockpage.Render(k, vars(i))
			if got := c.Classify(body); got != k {
				t.Errorf("render %d of %v classified as %v", i, k, got)
			}
		}
	}
}

func TestClassifyAgreesWithGroundTruth(t *testing.T) {
	// The production classifier must agree with the template ground
	// truth (blockpage.Matches) on every template render.
	c := NewClassifier()
	for _, k := range append(blockpage.Kinds(), blockpage.Censorship, blockpage.Legal451) {
		body := blockpage.Render(k, vars(3))
		got := c.Classify(body)
		if !blockpage.Matches(got, body) {
			t.Errorf("classifier says %v but ground truth disagrees", got)
		}
	}
}

func TestOriginPagesUnclassified(t *testing.T) {
	c := NewClassifier()
	rng := stats.NewRNG(5)
	for i := 0; i < 30; i++ {
		site := blockpage.NewOriginSite(fmt.Sprintf("o%d.example", i), rng.Fork(fmt.Sprint(i)))
		if k := c.Classify(site.Render(uint64(i))); k != blockpage.KindNone {
			t.Fatalf("origin page classified as %v", k)
		}
	}
}

func TestIsExplicitGeoblock(t *testing.T) {
	c := NewClassifier()
	explicit := map[blockpage.Kind]bool{
		blockpage.Cloudflare: true, blockpage.CloudFront: true,
		blockpage.AppEngine: true, blockpage.Baidu: true, blockpage.Airbnb: true,
	}
	for _, k := range blockpage.Kinds() {
		body := blockpage.Render(k, vars(1))
		kind, isExp := c.IsExplicitGeoblock(body)
		if kind != k {
			t.Errorf("%v misclassified as %v", k, kind)
		}
		if isExp != explicit[k] {
			t.Errorf("%v explicit=%v, want %v", k, isExp, explicit[k])
		}
	}
}

func TestCensorshipPageNotExplicit(t *testing.T) {
	c := NewClassifier()
	body := blockpage.Render(blockpage.Censorship, vars(2))
	kind, isExp := c.IsExplicitGeoblock(body)
	if kind != blockpage.Censorship || isExp {
		t.Fatal("censorship page must be recognized but never counted as geoblocking")
	}
}

func TestIsBlockPage(t *testing.T) {
	c := NewClassifier()
	if !c.IsBlockPage(blockpage.Render(blockpage.Nginx, vars(0))) {
		t.Fatal("nginx 403 should fingerprint")
	}
	if c.IsBlockPage("<html><body>perfectly ordinary page</body></html>") {
		t.Fatal("ordinary page misfired")
	}
	if c.IsBlockPage("") {
		t.Fatal("empty body misfired")
	}
}

func TestSignatureWhitespaceInsensitive(t *testing.T) {
	c := NewClassifier()
	body := blockpage.Render(blockpage.Cloudflare, vars(4))
	// Reflow the page: collapse newlines to spaces and double some.
	reflowed := ""
	for _, ch := range body {
		if ch == '\n' {
			reflowed += "  "
		} else {
			reflowed += string(ch)
		}
	}
	if c.Classify(reflowed) != blockpage.Cloudflare {
		t.Fatal("classifier must tolerate reflowed whitespace")
	}
}
