package scanner

import (
	"context"
	"testing"

	"geoblock/internal/geo"
)

// TestStreamingMatchesCollect: the streaming path and the
// materializing path see the exact same samples in the same order.
func TestStreamingMatchesCollect(t *testing.T) {
	domains, countries := smallInputs(40)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 8

	collected, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Sample
	if err := Run(context.Background(), testNet, domains, countries, tasks, cfg,
		SinkFunc(func(s Sample) { streamed = append(streamed, s) })); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(collected.Samples) {
		t.Fatalf("streamed %d, collected %d", len(streamed), len(collected.Samples))
	}
	for i := range streamed {
		if streamed[i] != collected.Samples[i] {
			t.Fatalf("sample %d differs between streaming and collect", i)
		}
	}
}

// TestRedirectLoopClassified drives the typed redirect-limit
// classification end to end: a redirect-loop domain must come back as
// ErrRedirects through the *url.Error wrapping of http.Client.Do.
func TestRedirectLoopClassified(t *testing.T) {
	var name string
	for _, d := range testWorld.Top10K() {
		if d.RedirectLoop && !d.Unreachable {
			name = d.Name
			break
		}
	}
	if name == "" {
		t.Skip("no redirect-loop domain at this scale")
	}
	cfg := testConfig()
	res, err := Scan(context.Background(), testNet, []string{name}, []geo.CountryCode{"US"}, CrossProduct(1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, s := range res.Samples {
		if s.Err == ErrRedirects {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("redirect loop never classified as ErrRedirects: %+v", res.Samples)
	}
}

// TestBodyLenNonNegative guards the Content-Length fix: absent headers
// surface as counted lengths, never as -1.
func TestBodyLenNonNegative(t *testing.T) {
	domains, countries := smallInputs(40)
	tasks := CrossProduct(len(domains), len(countries))
	res, err := Scan(context.Background(), testNet, domains, countries, tasks, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Samples {
		s := &res.Samples[i]
		if s.BodyLen < 0 {
			t.Fatalf("sample %d has negative BodyLen %d", i, s.BodyLen)
		}
		if s.Body != "" && int(s.BodyLen) != len(s.Body) {
			t.Fatalf("sample %d BodyLen %d != len(Body) %d", i, s.BodyLen, len(s.Body))
		}
	}
}
