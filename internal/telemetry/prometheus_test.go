package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// promRegistry builds a registry with one of everything the exposition
// must render: a plain counter, a labeled counter family, a gauge, and
// a histogram.
func promRegistry() *Registry {
	r := New()
	r.Counter("scanner.fetch.attempts").Add(7)
	r.Counter(Label("scanner.fetch.results", "code", "timeout")).Add(2)
	r.Counter(Label("scanner.fetch.results", "code", "ok")).Add(5)
	r.RuntimeGauge("scanner.sched.workers").Set(4)
	h := r.Histogram("scanner.fetch.bytes", 0, 100, 4)
	h.Observe(10)
	h.Observe(60)
	h.Observe(250) // out of range: lands only in +Inf
	return r
}

func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := promRegistry().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE scanner_fetch_attempts counter",
		"scanner_fetch_attempts 7",
		"# TYPE scanner_fetch_results counter",
		`scanner_fetch_results{code="ok"} 5`,
		`scanner_fetch_results{code="timeout"} 2`,
		"# TYPE scanner_sched_workers gauge",
		"scanner_sched_workers 4",
		"# TYPE scanner_fetch_bytes histogram",
		`scanner_fetch_bytes_bucket{le="25"} 1`,
		`scanner_fetch_bytes_bucket{le="100"} 2`,
		`scanner_fetch_bytes_bucket{le="+Inf"} 3`,
		"scanner_fetch_bytes_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q;\n%s", want, out)
		}
	}
	// A TYPE line must appear exactly once per family even with several
	// labeled series.
	if n := strings.Count(out, "# TYPE scanner_fetch_results counter"); n != 1 {
		t.Errorf("scanner_fetch_results TYPE declared %d times, want 1", n)
	}
}

// TestMetricsHandlerNegotiation is the handler table: the same
// endpoint serves human text, JSON, and the Prometheus exposition,
// chosen by query parameter or Accept header.
func TestMetricsHandlerNegotiation(t *testing.T) {
	handler := promRegistry().Handler()
	cases := []struct {
		name     string
		target   string
		accept   string
		wantCT   string
		wantBody string
	}{
		{"default-text", "/debug/metrics", "", "text/plain; charset=utf-8", "# counters"},
		{"browser-accept-stays-text", "/debug/metrics", "text/html,application/xhtml+xml", "text/plain; charset=utf-8", "# counters"},
		{"query-json", "/debug/metrics?format=json", "", "application/json", `"counters"`},
		{"query-prometheus", "/debug/metrics?format=prometheus", "", PrometheusContentType, "# TYPE scanner_fetch_attempts counter"},
		{"accept-prometheus", "/debug/metrics", "text/plain; version=0.0.4; charset=utf-8", PrometheusContentType, "scanner_fetch_attempts 7"},
		{"accept-prometheus-listed", "/debug/metrics", "application/openmetrics-text, text/plain; version=0.0.4", PrometheusContentType, "# TYPE scanner_fetch_bytes histogram"},
		{"query-overrides-accept", "/debug/metrics?format=json", "text/plain; version=0.0.4", "application/json", `"histograms"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("GET", tc.target, nil)
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("status %d", rec.Code)
			}
			if ct := rec.Header().Get("Content-Type"); ct != tc.wantCT {
				t.Fatalf("Content-Type = %q, want %q", ct, tc.wantCT)
			}
			if !strings.Contains(rec.Body.String(), tc.wantBody) {
				t.Fatalf("body missing %q:\n%s", tc.wantBody, rec.Body.String())
			}
		})
	}
}

// TestPromSanitize pins the name mapping rules.
func TestPromSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"scanner.fetch.results": "scanner_fetch_results",
		"a-b/c":                 "a_b_c",
		"9lives":                "_9lives",
		"ok_name:sub":           "ok_name:sub",
	} {
		if got := promSanitize(in); got != want {
			t.Errorf("promSanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
