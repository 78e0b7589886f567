// The /v1 verdict edge: worldd's production surface. Where the rest of
// the daemon serves debug views of the world, these endpoints serve the
// *study's answers* — the compiled (domain × country) block-verdict
// matrix — at memory speed, with atomic snapshot swap on study
// completion, ETag revalidation, and token-bucket load shedding.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"geoblock/internal/geo"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/verdict"
)

// maxSnapshotBytes bounds a POST /v1/snapshot body.
const maxSnapshotBytes = 64 << 20

// maxBulkQueries bounds one POST /v1/verdicts batch.
const maxBulkQueries = 10000

// verdictEdge serves the verdict matrix. One instance lives for the
// daemon's lifetime; snapshots swap through the holder without
// dropping in-flight requests.
type verdictEdge struct {
	reg     *telemetry.Registry
	limiter *verdict.Limiter // nil: no shedding
	holder  verdict.Holder

	// tracer, when set via Trace, receives slow-lookup exemplar events:
	// one runtime-class wide event per request served slower than
	// slowNS, carrying the trace ID the histogram bucket can't.
	tracer   *trace.Tracer
	traceCtx trace.SpanCtx
	slowNS   float64
	slowSeq  atomic.Int64
}

func newVerdictEdge(reg *telemetry.Registry, limiter *verdict.Limiter) *verdictEdge {
	return &verdictEdge{reg: reg, limiter: limiter, slowNS: verdict.SlowLookupNanos}
}

// Trace attaches a tracer; requests served slower than SlowLookupNanos
// then record exemplar events under the verdict/edge span.
func (e *verdictEdge) Trace(tr *trace.Tracer) {
	e.tracer = tr
	e.traceCtx = tr.Root().Child("verdict/edge", 0)
}

// Swap atomically publishes a new snapshot; readers in flight keep the
// one they loaded.
func (e *verdictEdge) Swap(s *verdict.Snapshot) {
	e.holder.Swap(s)
	e.reg.RuntimeCounter(verdict.MetSwaps).Add(1)
}

// register mounts the /v1 routes.
func (e *verdictEdge) register(mux *http.ServeMux) {
	mux.Handle("/v1/verdict", http.HandlerFunc(e.handleVerdict))
	mux.Handle("/v1/verdicts", http.HandlerFunc(e.handleBulk))
	mux.Handle("/v1/snapshot", http.HandlerFunc(e.handleSnapshot))
}

// admit runs the edge's front door: load shedding first (a 429 must be
// cheaper than the work it refuses), then the first-snapshot 503 gate.
// Returns the snapshot to serve from, or nil after writing the refusal.
func (e *verdictEdge) admit(w http.ResponseWriter) *verdict.Snapshot {
	if ok, retry := e.limiter.Allow(); !ok {
		e.reg.RuntimeCounter(verdict.MetShed).Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
		http.Error(w, "verdict edge shedding load", http.StatusTooManyRequests)
		return nil
	}
	snap := e.holder.Load()
	if snap == nil {
		http.Error(w, "no verdict snapshot loaded yet; run a study or POST /v1/snapshot", http.StatusServiceUnavailable)
		return nil
	}
	return snap
}

// observeLatency records one request's service time in the lookup
// histogram (nanoseconds, 10µs bins to 1ms). Requests past the slow
// threshold also leave an exemplar in the trace: the histogram says
// the tail exists, the exemplar's trace ID says which request it was.
func (e *verdictEdge) observeLatency(endpoint string, ns float64) {
	e.reg.RuntimeHistogram(verdict.HistLookupNanos, 0, 1e6, 100).Observe(ns)
	if e.tracer == nil || ns < e.slowNS {
		return
	}
	e.reg.RuntimeCounter(verdict.MetSlowLookups).Add(1)
	seq := int(e.slowSeq.Add(1)) - 1
	ev := trace.NewEvent(e.traceCtx.Child("lookup", seq), "verdict.lookup.slow")
	ev.Parent = e.traceCtx.Span
	ev.Runtime = true
	ev.Outcome = "slow"
	ev.WallNS = e.tracer.Now()
	ev.WallDurNS = int64(ns)
	ev.Attrs = []trace.Attr{
		{K: "endpoint", V: endpoint},
		{K: "ns", V: strconv.FormatFloat(ns, 'f', -1, 64)},
	}
	e.tracer.Record(ev)
}

// countLookup tallies one answered lookup by result class.
func (e *verdictEdge) countLookup(result string) {
	e.reg.RuntimeCounter(telemetry.Label(verdict.MetLookups, "result", result)).Add(1)
}

// verdictBody is the GET /v1/verdict and bulk-result JSON shape.
type verdictBody struct {
	Domain  string `json:"domain"`
	Country string `json:"cc"`
	Blocked bool   `json:"blocked"`
	Kind    string `json:"kind,omitempty"`
	Version uint64 `json:"version"`
}

// handleVerdict is GET /v1/verdict?domain=&cc=: one pair, one answer.
// 404 means the pair is outside the studied universe — distinct from
// 200 blocked:false, which is a studied pair the study cleared.
func (e *verdictEdge) handleVerdict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	start := e.reg.Now()
	snap := e.admit(w)
	if snap == nil {
		return
	}
	domain := r.URL.Query().Get("domain")
	cc := r.URL.Query().Get("cc")
	if domain == "" || cc == "" {
		http.Error(w, "domain and cc query parameters are required", http.StatusBadRequest)
		return
	}

	// The whole matrix shares one validator, so a client that cached
	// any answer under this ETag can revalidate every pair for free
	// until the next study lands.
	w.Header().Set("ETag", snap.ETag())
	if r.Header.Get("If-None-Match") == snap.ETag() {
		e.reg.RuntimeCounter(verdict.MetNotModified).Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	v, ok := snap.Lookup(domain, geo.CountryCode(cc))
	if !ok {
		e.countLookup("unknown")
		http.Error(w, fmt.Sprintf("pair (%s, %s) outside the studied universe", domain, cc), http.StatusNotFound)
		return
	}
	body := verdictBody{Domain: domain, Country: cc, Blocked: v.Blocked, Version: snap.Version()}
	if v.Blocked {
		e.countLookup("blocked")
		body.Kind = v.Kind.String()
	} else {
		e.countLookup("clear")
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
	e.observeLatency("verdict", float64(e.reg.Now().Sub(start).Nanoseconds()))
}

// bulkRequest is the POST /v1/verdicts body.
type bulkRequest struct {
	Queries []struct {
		Domain  string `json:"domain"`
		Country string `json:"cc"`
	} `json:"queries"`
}

// bulkResult is one bulk answer; Found false marks an outside-universe
// pair (the bulk analogue of the single endpoint's 404).
type bulkResult struct {
	Domain  string `json:"domain"`
	Country string `json:"cc"`
	Found   bool   `json:"found"`
	Blocked bool   `json:"blocked"`
	Kind    string `json:"kind,omitempty"`
}

// handleBulk is POST /v1/verdicts: many pairs in one round trip, the
// shape a CDN edge function batches per request wave.
func (e *verdictEdge) handleBulk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	start := e.reg.Now()
	snap := e.admit(w)
	if snap == nil {
		return
	}
	var req bulkRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Queries) == 0 {
		http.Error(w, "queries must be non-empty", http.StatusBadRequest)
		return
	}
	if len(req.Queries) > maxBulkQueries {
		http.Error(w, fmt.Sprintf("at most %d queries per batch", maxBulkQueries), http.StatusBadRequest)
		return
	}
	results := make([]bulkResult, len(req.Queries))
	for i, q := range req.Queries {
		res := bulkResult{Domain: q.Domain, Country: q.Country}
		if v, ok := snap.Lookup(q.Domain, geo.CountryCode(q.Country)); ok {
			res.Found = true
			res.Blocked = v.Blocked
			if v.Blocked {
				e.countLookup("blocked")
				res.Kind = v.Kind.String()
			} else {
				e.countLookup("clear")
			}
		} else {
			e.countLookup("unknown")
		}
		results[i] = res
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", snap.ETag())
	json.NewEncoder(w).Encode(struct {
		Version uint64       `json:"version"`
		ETag    string       `json:"etag"`
		Results []bulkResult `json:"results"`
	}{snap.Version(), snap.ETag(), results})
	e.observeLatency("bulk", float64(e.reg.Now().Sub(start).Nanoseconds()))
}

// handleSnapshot is POST /v1/snapshot: load an encoded snapshot and
// swap it in atomically. The management plane, so it is not shed and
// not gated on readiness — it is how the edge *becomes* ready.
func (e *verdictEdge) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	snap, err := verdict.Decode(b)
	if err != nil {
		http.Error(w, "decode snapshot: "+err.Error(), http.StatusBadRequest)
		return
	}
	e.Swap(snap)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Version   uint64 `json:"version"`
		ETag      string `json:"etag"`
		Blocked   int    `json:"blocked"`
		Domains   int    `json:"domains"`
		Countries int    `json:"countries"`
	}{snap.Version(), snap.ETag(), snap.Blocked(), len(snap.Domains()), len(snap.Countries())})
}
