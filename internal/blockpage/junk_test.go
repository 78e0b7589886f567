package blockpage

import (
	"strings"
	"testing"

	"geoblock/internal/textfeat"
)

func TestJunkKindsRender(t *testing.T) {
	for _, k := range JunkKinds() {
		body := RenderJunk(k, "site.example.com", "abc123")
		if n := JunkLen(k, "site.example.com", "abc123"); n != len(body) {
			t.Errorf("junk kind %d: JunkLen %d, rendered %d bytes", k, n, len(body))
		}
		if len(body) < 200 {
			t.Errorf("junk kind %d too short (%d bytes)", k, len(body))
		}
		if len(body) > 4000 {
			t.Errorf("junk kind %d too long (%d bytes) to be an outlier", k, len(body))
		}
	}
}

func TestJunkPagesAreNotBlockPages(t *testing.T) {
	for _, k := range JunkKinds() {
		body := RenderJunk(k, "site.example.com", "abc123")
		for _, bk := range append(Kinds(), Censorship) {
			if Matches(bk, body) {
				t.Errorf("junk kind %d matches block signature %v", k, bk)
			}
		}
	}
}

func TestJunkPagesClusterAcrossSites(t *testing.T) {
	// The whole point of junk templates: instances from unrelated
	// domains must be near-identical, so they collapse into a handful
	// of clusters instead of thousands of per-domain ones.
	var docs []string
	for i := 0; i < 10; i++ {
		domain := "junk" + string(rune('a'+i)) + ".example"
		docs = append(docs,
			RenderJunk(JunkMaintenance, domain, "n"+string(rune('0'+i))),
			RenderJunk(JunkEmptyApp, domain, "h"+string(rune('0'+i))),
		)
	}
	_, vecs := textfeat.FitTransform(docs)
	for i := 0; i < len(docs); i += 2 {
		for j := i + 2; j < len(docs); j += 2 {
			if sim := textfeat.Cosine(vecs[i], vecs[j]); sim < 0.9 {
				t.Fatalf("maintenance pages %d/%d similarity %.3f, want near-identical", i, j, sim)
			}
		}
	}
}

func TestJunkParkedVariesByDomain(t *testing.T) {
	a := RenderJunk(JunkParked, "one.example", "x")
	b := RenderJunk(JunkParked, "two.example", "x")
	if a == b {
		t.Fatal("parked page should embed the domain")
	}
	if !strings.Contains(a, "one.example") {
		t.Fatal("parked page missing domain")
	}
}

func TestJunkRenderPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RenderJunk(JunkKind(99), "x", "y")
}
