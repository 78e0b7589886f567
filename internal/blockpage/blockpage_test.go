package blockpage

import (
	"strings"
	"testing"

	"geoblock/internal/stats"
)

func sampleVars() Vars {
	return Vars{
		Domain:      "shop.example.com",
		Path:        "/",
		ClientIP:    "91.108.4.7",
		CountryName: "Iran",
		RayID:       "44bfa65f2a8c2b91",
		Nonce:       "f3a9c1d0",
	}
}

func TestEveryKindRenders(t *testing.T) {
	for _, k := range append(Kinds(), Censorship) {
		body := Render(k, sampleVars())
		if len(body) < 100 {
			t.Errorf("%v renders suspiciously short page (%d bytes)", k, len(body))
		}
	}
}

// TestBlockLenMatchesRender holds Len, the length a served block page
// advertises before anything reads it, to the page Render builds, for
// every kind, with fields of several lengths and an empty path.
func TestBlockLenMatchesRender(t *testing.T) {
	short := Vars{Domain: "a.io", ClientIP: "8.0.0.1", CountryName: "Chad", RayID: "0", Nonce: "1"}
	for _, k := range append(Kinds(), Censorship) {
		for _, v := range []Vars{sampleVars(), short} {
			if n, body := Len(k, v), Render(k, v); n != len(body) {
				t.Errorf("%v: Len %d, rendered %d bytes", k, n, len(body))
			}
		}
	}
}

func TestSignaturesPresentInOwnTemplate(t *testing.T) {
	for _, k := range append(Kinds(), Censorship) {
		body := Render(k, sampleVars())
		if !Matches(k, body) {
			t.Errorf("%v template does not match its own signature", k)
		}
	}
}

func TestSignaturesUniqueAcrossTemplates(t *testing.T) {
	v := sampleVars()
	for _, k := range append(Kinds(), Censorship) {
		body := Render(k, v)
		for _, other := range append(Kinds(), Censorship) {
			if other == k {
				continue
			}
			// The Cloudflare block signature intentionally also matches
			// Baidu's near-identical page only via its own tokens; the
			// disambiguating tokens must keep them apart.
			if Matches(other, body) {
				t.Errorf("%v page matches %v signature", k, other)
			}
		}
	}
}

func TestSignatureSurvivesVariableFields(t *testing.T) {
	for _, k := range Kinds() {
		a := Render(k, sampleVars())
		b := Render(k, Vars{
			Domain: "news.other.net", Path: "/world", ClientIP: "5.6.7.8",
			CountryName: "Syria", RayID: "deadbeef01", Nonce: "zz91",
		})
		if !Matches(k, a) || !Matches(k, b) {
			t.Errorf("%v signature not stable across variable fields", k)
		}
	}
}

func TestOriginDoesNotMatchAnySignature(t *testing.T) {
	rng := stats.NewRNG(100)
	for i := 0; i < 20; i++ {
		site := NewOriginSite("example"+string(rune('a'+i))+".com", rng.Fork(string(rune('a'+i))))
		body := site.Render(uint64(i))
		for _, k := range append(Kinds(), Censorship) {
			if Matches(k, body) {
				t.Fatalf("origin page matches %v", k)
			}
		}
	}
}

func TestExplicitSet(t *testing.T) {
	want := map[Kind]bool{
		Cloudflare: true, CloudFront: true, AppEngine: true,
		Baidu: true, Airbnb: true,
	}
	for _, k := range Kinds() {
		if k.Explicit() != want[k] {
			t.Errorf("%v Explicit() = %v", k, k.Explicit())
		}
	}
}

func TestAmbiguousAndChallengePartition(t *testing.T) {
	for _, k := range Kinds() {
		n := 0
		if k.Explicit() {
			n++
		}
		if k.Ambiguous() {
			n++
		}
		if k.Challenge() {
			n++
		}
		if n != 1 {
			t.Errorf("%v belongs to %d classes, want exactly 1", k, n)
		}
	}
}

func TestStatusCodes(t *testing.T) {
	if Cloudflare.Status() != 403 || Akamai.Status() != 403 {
		t.Fatal("block pages must be 403")
	}
	if CloudflareJS.Status() != 503 {
		t.Fatal("JS challenge is served with 503")
	}
	if KindNone.Status() != 200 {
		t.Fatal("KindNone means success")
	}
}

func TestKindString(t *testing.T) {
	if Akamai.String() != "Akamai" || Kind(99).String() == "" {
		t.Fatal("String() broken")
	}
}

func TestBlockPagesShorterThanTypicalOrigin(t *testing.T) {
	// The length heuristic depends on block pages being much shorter
	// than a typical origin page.
	v := sampleVars()
	for _, k := range Kinds() {
		if n := len(Render(k, v)); n > 6000 {
			t.Errorf("%v block page is %d bytes; expected < 6 KB", k, n)
		}
	}
}

func TestOriginDeterministic(t *testing.T) {
	a := NewOriginSite("det.example.com", stats.NewRNG(5))
	b := NewOriginSite("det.example.com", stats.NewRNG(5))
	if a.Render(7) != b.Render(7) {
		t.Fatal("origin rendering not deterministic")
	}
	if a.Render(7) == a.Render(8) {
		t.Fatal("dynamic section should vary with sample seed")
	}
}

func TestOriginLengthJitterBounded(t *testing.T) {
	site := NewOriginSite("jitter.example.com", stats.NewRNG(11))
	base := len(site.Render(0))
	for i := uint64(1); i < 30; i++ {
		n := len(site.Render(i))
		ratio := float64(n) / float64(base)
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("render %d length ratio %.2f outside sane bounds", i, ratio)
		}
	}
}

func TestOriginLengthDistribution(t *testing.T) {
	rng := stats.NewRNG(21)
	short, total := 0, 400
	var lens []float64
	for i := 0; i < total; i++ {
		site := NewOriginSite("dist.example.com", rng.Fork(string(rune(i))+"x"))
		n := len(site.Render(0))
		lens = append(lens, float64(n))
		if n < 3000 {
			short++
		}
	}
	med := stats.Median(lens)
	if med < 4000 || med > 80000 {
		t.Fatalf("median origin length %v outside expected band", med)
	}
	frac := float64(short) / float64(total)
	if frac < 0.02 || frac > 0.40 {
		t.Fatalf("short-page fraction %.2f; want a minority but nonzero", frac)
	}
}

func TestRenderPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Render(Kind(42), Vars{})
}

func TestVarsAppearInPages(t *testing.T) {
	v := sampleVars()
	cf := Render(Cloudflare, v)
	for _, want := range []string{v.Domain, v.CountryName, v.RayID, v.ClientIP} {
		if !strings.Contains(cf, want) {
			t.Errorf("Cloudflare page missing %q", want)
		}
	}
	ak := Render(Akamai, v)
	if !strings.Contains(ak, v.Domain) || !strings.Contains(ak, v.RayID) {
		t.Error("Akamai page missing variable fields")
	}
}

func TestAirbnbNamesBlockedRegions(t *testing.T) {
	body := Render(Airbnb, sampleVars())
	for _, region := range []string{"Crimea", "Iran", "Syria", "North Korea"} {
		if !strings.Contains(body, region) {
			t.Errorf("Airbnb page must name %s", region)
		}
	}
}

func TestLengthMatchesRender(t *testing.T) {
	rng := stats.NewRNG(77)
	for i := 0; i < 25; i++ {
		site := NewOriginSite("len.example.com", rng.Fork(string(rune('A'+i))))
		for seed := uint64(0); seed < 5; seed++ {
			want := site.Length(seed)
			got := len(site.Render(seed))
			if got != want {
				t.Fatalf("site %d seed %d: Length=%d but Render produced %d bytes", i, seed, want, got)
			}
		}
	}
}
