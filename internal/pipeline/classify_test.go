package pipeline

import (
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/worldgen"
)

// TestClassifyBodiesAnyWorkers: the classification pass gives every
// snapshot sample the class Classify gives its body (KindNone for a
// failed or bodiless sample), whatever the worker count.
func TestClassifyBodiesAnyWorkers(t *testing.T) {
	s, r := top10K(t)
	want := make([]blockpage.Kind, len(r.Initial.Samples))
	bodies := 0
	for i := range r.Initial.Samples {
		if sm := &r.Initial.Samples[i]; sm.OK() && sm.Body != "" {
			want[i] = s.Classifier.Classify(sm.Body)
			bodies++
		}
	}
	if bodies == 0 {
		t.Fatal("snapshot kept no bodies")
	}
	for _, workers := range []int{1, 2, 8} {
		classes := s.classifyBodies(r.Initial, workers)
		if len(classes) != len(want) {
			t.Fatalf("%d workers: %d classes for %d samples", workers, len(classes), len(want))
		}
		for i := range want {
			if classes.at(i) != want[i] {
				t.Fatalf("%d workers: sample %d classed %v, Classify says %v", workers, i, classes.at(i), want[i])
			}
		}
	}
}

// TestClusterKindVote pins the cluster label vote: a tie goes to the
// lower kind, and a kind short of half the members labels nothing.
func TestClusterKindVote(t *testing.T) {
	v := blockpage.Vars{Domain: "vote.example", CountryName: "Iran", RayID: "f00d", ClientIP: "192.0.2.7", Nonce: "n"}
	page := func(k blockpage.Kind) OutlierDoc { return OutlierDoc{Body: blockpage.Render(k, v)} }
	origin := OutlierDoc{Body: "<html><body>an ordinary page</body></html>"}
	cases := []struct {
		name    string
		members []OutlierDoc
		want    blockpage.Kind
	}{
		{"tie goes to the lower kind", []OutlierDoc{
			page(blockpage.CloudflareCaptcha), page(blockpage.Cloudflare), page(blockpage.CloudflareCaptcha),
			page(blockpage.Cloudflare), page(blockpage.CloudflareCaptcha), page(blockpage.Cloudflare),
		}, blockpage.Cloudflare},
		{"plurality below half", []OutlierDoc{
			page(blockpage.Cloudflare), page(blockpage.Cloudflare), page(blockpage.Akamai),
			page(blockpage.AppEngine), origin, origin,
		}, blockpage.KindNone},
		{"exact half", []OutlierDoc{page(blockpage.Akamai), page(blockpage.Akamai), origin, origin}, blockpage.Akamai},
		{"nothing matches", []OutlierDoc{origin, origin, origin}, blockpage.KindNone},
	}
	for _, tc := range cases {
		members := make([]int, len(tc.members))
		for i := range members {
			members[i] = i
		}
		for run := 0; run < 8; run++ {
			if got := clusterKind(members, tc.members); got != tc.want {
				t.Fatalf("%s: labelled %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

// TestClusterLabelTieSeed59: world seed 59 at scale 0.03 clusters three
// Cloudflare and three Cloudflare Captcha pages together; the tie is
// labelled Cloudflare on every run.
func TestClusterLabelTieSeed59(t *testing.T) {
	cfg := worldgen.DefaultConfig()
	cfg.Seed = 59
	cfg.Scale = 0.03
	r := New(worldgen.Generate(cfg)).RunTop10K(Top10KConfig{Concurrency: 2})
	found := false
	for i, c := range r.Clusters {
		var cf, captcha int
		for _, m := range c.Members {
			switch blockpage.Label(r.Outliers[m].Body) {
			case blockpage.Cloudflare:
				cf++
			case blockpage.CloudflareCaptcha:
				captcha++
			}
		}
		if cf != 3 || captcha != 3 || len(c.Members) != 6 {
			continue
		}
		found = true
		if r.ClusterKinds[i] != blockpage.Cloudflare {
			t.Errorf("tied cluster %d labelled %v, want Cloudflare", i, r.ClusterKinds[i])
		}
	}
	if !found {
		t.Fatal("seed 59 no longer has the 3:3 Cloudflare/Cloudflare Captcha cluster")
	}
}
