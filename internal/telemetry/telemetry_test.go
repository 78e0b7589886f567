package telemetry

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"geoblock/internal/stats"
)

func TestCountersGaugesHistograms(t *testing.T) {
	r := New()
	r.Counter("a").Add(2)
	r.Counter("a").Add(3)
	if got := r.Counter("a").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-2)
	if got := r.Gauge("g").Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h := r.Histogram("h", 0, 10, 5)
	h.Observe(1)
	h.Observe(9.5)
	h.Observe(42) // over range
	st := h.export("h")
	if st.Total != 3 || st.OutOfRange != 1 {
		t.Fatalf("histogram total=%d oor=%d, want 3/1", st.Total, st.OutOfRange)
	}
	if st.Sum != 1+9+42 {
		t.Fatalf("histogram sum=%d, want 52 (integer-truncated)", st.Sum)
	}
}

// TestAddBatchMatchesObserve: a batch binned by stats.Histogram.Add
// and added in one call snapshots exactly as the same observations
// made one by one, out-of-range values and truncated sum included. A
// batch with another bin count lands out of range whole.
func TestAddBatchMatchesObserve(t *testing.T) {
	obs := []float64{-3, 0, 1.5, 2, 9.99, 10, 10.5, 42}
	live, batched := New(), New()
	local := stats.NewHistogram(0, 10, 5)
	var sum int64
	for _, v := range obs {
		live.Histogram("h", 0, 10, 5).Observe(v)
		local.Add(v)
		sum += int64(v)
	}
	in := 0
	for _, c := range local.Counts {
		in += c
	}
	batched.Histogram("h", 0, 10, 5).AddBatch(local.Counts, local.Total()-in, sum)
	if got, want := batched.Snapshot().Text(), live.Snapshot().Text(); got != want {
		t.Fatalf("batched snapshot:\n%s\nlive snapshot:\n%s", got, want)
	}

	h := New().Histogram("m", 0, 10, 4)
	h.AddBatch([]int{1, 2}, 3, 7)
	if st := h.export("m"); st.Total != 6 || st.OutOfRange != 6 || st.Sum != 7 {
		t.Fatalf("mismatched batch: total=%d oor=%d sum=%d, want 6/6/7", st.Total, st.OutOfRange, st.Sum)
	}
}

func TestRegistrationClassIsSticky(t *testing.T) {
	r := New()
	r.RuntimeCounter("steals").Add(1)
	r.Counter("steals").Add(1) // later deterministic lookup keeps the class
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || !snap.Counters[0].Runtime {
		t.Fatalf("first registration should fix the runtime class: %+v", snap.Counters)
	}
	if det := snap.Deterministic(); len(det.Counters) != 0 {
		t.Fatalf("runtime counter leaked into deterministic view: %+v", det.Counters)
	}
}

func TestNilReceiversNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.RuntimeCounter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x", 0, 1, 1).Observe(1)
	r.RuntimeHistogram("x", 0, 1, 1).Observe(1)
	r.Histogram("x", 0, 1, 1).AddBatch([]int{1}, 0, 1)
	if !r.Now().IsZero() {
		t.Fatal("nil registry Now should be the zero time")
	}
	if got := r.Snapshot().Text(); !strings.Contains(got, "# counters") {
		t.Fatalf("nil registry snapshot should still render sections:\n%s", got)
	}
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 {
		t.Fatal("nil metrics must read zero")
	}
}

// TestRegistryClock: a registry reads time from the clock it was built
// on — a Virtual clock moves only when advanced, starting at the epoch.
func TestRegistryClock(t *testing.T) {
	clk := NewVirtual()
	r := NewWithClock(clk)
	if got := r.Now(); !got.Equal(time.Unix(0, 0)) {
		t.Fatalf("virtual registry starts at %v, want the epoch", got)
	}
	clk.Advance(1500 * time.Microsecond)
	if got := r.Now().Sub(time.Unix(0, 0)); got != 1500*time.Microsecond {
		t.Fatalf("after Advance the registry reads %v past the epoch, want 1.5ms", got)
	}
	if !New().Now().Equal(time.Unix(0, 0)) {
		t.Fatal("New must default to a virtual clock at the epoch")
	}
}

func TestConcurrentUseIsRaceFree(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("c").Add(1)
				r.Histogram("h", 0, 100, 10).Observe(float64(i))
			}
		}()
	}
	for i := 0; i < 10; i++ {
		_ = r.Snapshot().Text() // snapshot while writers run
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
	if got := r.Snapshot().Histograms[0].Total; got != 800 {
		t.Fatalf("histogram total = %d, want 800", got)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("m"); got != "m" {
		t.Fatalf("Label with no pairs = %q", got)
	}
	if got := Label("m", "k", "v"); got != "m{k=v}" {
		t.Fatalf("Label = %q", got)
	}
	if got := Label("m", "a", "1", "b", "2"); got != "m{a=1,b=2}" {
		t.Fatalf("Label = %q", got)
	}
}

func TestProgressLoop(t *testing.T) {
	var buf bytes.Buffer
	ticks := make(chan time.Time)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProgress(&buf, ticks, done, func() string { return "tick" })
	}()
	ticks <- time.Time{}
	ticks <- time.Time{}
	close(done)
	wg.Wait()
	if got := buf.String(); got != "tick\ntick\n" {
		t.Fatalf("progress output = %q", got)
	}
}

func TestStartProgressStopsIdempotently(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartProgress(w, time.Hour, func() string { return "x" })
	stop()
	stop() // second call must not panic or deadlock
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestHTTPHandler(t *testing.T) {
	r := New()
	r.Counter("hits").Add(3)
	h := r.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if !strings.Contains(rec.Body.String(), "hits 3") {
		t.Fatalf("text body missing counter:\n%s", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text content type = %q", ct)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type = %q", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"name": "hits"`) {
		t.Fatalf("json body missing counter:\n%s", body)
	}
}

func TestAttachDebugRoutes(t *testing.T) {
	mux := http.NewServeMux()
	AttachDebug(mux, New())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/metrics status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline status = %d", rec.Code)
	}
}
