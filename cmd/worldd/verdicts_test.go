package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoblock"
	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
	"geoblock/internal/telemetry"
	"geoblock/internal/verdict"
)

// edgeSnapshot is the small fixed matrix the handler tests serve.
func edgeSnapshot(t testing.TB, version uint64) *verdict.Snapshot {
	t.Helper()
	src := verdict.Source{
		Version:   version,
		Seed:      42,
		Domains:   []string{"blocked.example", "clear.example", "swap.example"},
		Countries: []geo.CountryCode{"CN", "US"},
		Entries: []verdict.Entry{
			{Domain: "blocked.example", Country: "CN", Kind: blockpage.Cloudflare},
		},
	}
	if version > 1 {
		// Later studies also block swap.example — how the soak and swap
		// tests tell the two snapshots' answers apart.
		src.Entries = append(src.Entries, verdict.Entry{
			Domain: "swap.example", Country: "CN", Kind: blockpage.Akamai,
		})
	}
	snap, err := verdict.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// newEdgeServer serves just the verdict edge (no world) with the given
// limiter, returning the server and the edge for swaps.
func newEdgeServer(t testing.TB, limiter *verdict.Limiter) (*httptest.Server, *verdictEdge, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewWithClock(telemetry.Wall{})
	edge := newVerdictEdge(reg, limiter)
	var holder atomic.Pointer[geoblock.System]
	srv := httptest.NewServer(countRequests(reg, newMux(&holder, reg, edge, nil)))
	t.Cleanup(srv.Close)
	return srv, edge, reg
}

func TestVerdictEndpointGatesBeforeFirstSnapshot(t *testing.T) {
	srv, _, _ := newEdgeServer(t, nil)
	for _, req := range []struct {
		method, path, body string
	}{
		{http.MethodGet, "/v1/verdict?domain=blocked.example&cc=CN", ""},
		{http.MethodPost, "/v1/verdicts", `{"queries":[{"domain":"blocked.example","cc":"CN"}]}`},
	} {
		r, _ := http.NewRequest(req.method, srv.URL+req.path, strings.NewReader(req.body))
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s before first snapshot: status %d, want 503", req.method, req.path, resp.StatusCode)
		}
	}
}

func TestVerdictEndpointMethodGating(t *testing.T) {
	srv, edge, _ := newEdgeServer(t, nil)
	edge.Swap(edgeSnapshot(t, 1))
	cases := []struct {
		path    string
		methods []string // rejected methods
		allow   string
	}{
		{"/v1/verdict?domain=x&cc=CN", []string{http.MethodPost, http.MethodPut, http.MethodDelete}, "GET, HEAD"},
		{"/v1/verdicts", []string{http.MethodGet, http.MethodPut, http.MethodDelete}, "POST"},
		{"/v1/snapshot", []string{http.MethodGet, http.MethodPut, http.MethodDelete}, "POST"},
	}
	for _, c := range cases {
		for _, method := range c.methods {
			req, _ := http.NewRequest(method, srv.URL+c.path, strings.NewReader("x"))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, c.path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != c.allow {
				t.Errorf("%s %s: Allow %q, want %q", method, c.path, allow, c.allow)
			}
		}
	}
}

func TestVerdictLookupStatuses(t *testing.T) {
	srv, edge, _ := newEdgeServer(t, nil)
	edge.Swap(edgeSnapshot(t, 1))
	cases := []struct {
		name    string
		query   string
		status  int
		blocked bool
		kind    string
	}{
		{"blocked pair", "domain=blocked.example&cc=CN", 200, true, "Cloudflare"},
		{"studied clear pair", "domain=clear.example&cc=US", 200, false, ""},
		{"studied domain, clear country", "domain=blocked.example&cc=US", 200, false, ""},
		{"unknown domain", "domain=nope.example&cc=CN", 404, false, ""},
		{"unknown country", "domain=blocked.example&cc=ZZ", 404, false, ""},
		{"missing domain", "cc=CN", 400, false, ""},
		{"missing cc", "domain=blocked.example", 400, false, ""},
	}
	for _, c := range cases {
		resp, err := http.Get(srv.URL + "/v1/verdict?" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
			continue
		}
		if c.status != 200 {
			continue
		}
		var v verdictBody
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s: bad JSON %q: %v", c.name, body, err)
			continue
		}
		if v.Blocked != c.blocked || v.Kind != c.kind || v.Version != 1 {
			t.Errorf("%s: %+v, want blocked=%v kind=%q version=1", c.name, v, c.blocked, c.kind)
		}
	}
}

func TestVerdictETagRevalidation(t *testing.T) {
	srv, edge, reg := newEdgeServer(t, nil)
	snap := edgeSnapshot(t, 1)
	edge.Swap(snap)

	resp, err := http.Get(srv.URL + "/v1/verdict?domain=blocked.example&cc=CN")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag != snap.ETag() {
		t.Fatalf("ETag %q, want %q", etag, snap.ETag())
	}

	// Revalidation with the current tag: 304, no body.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/verdict?domain=blocked.example&cc=CN", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: status %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(body))
	}
	found := false
	for _, m := range reg.Snapshot().Counters {
		if m.Name == verdict.MetNotModified && m.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("304 did not tick the not_modified counter")
	}

	// After a swap the old tag no longer matches: full 200 with the new
	// matrix's answers.
	edge.Swap(edgeSnapshot(t, 2))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revalidation after swap: status %d, want 200", resp.StatusCode)
	}
	if newTag := resp.Header.Get("ETag"); newTag == etag || newTag == "" {
		t.Fatalf("ETag did not change across the swap: %q", newTag)
	}
	var v verdictBody
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Version != 2 {
		t.Fatalf("post-swap answer carries version %d, want 2", v.Version)
	}
}

func TestVerdictBulk(t *testing.T) {
	srv, edge, _ := newEdgeServer(t, nil)
	snap := edgeSnapshot(t, 2)
	edge.Swap(snap)

	body := `{"queries":[
		{"domain":"blocked.example","cc":"CN"},
		{"domain":"swap.example","cc":"CN"},
		{"domain":"clear.example","cc":"US"},
		{"domain":"nope.example","cc":"CN"}
	]}`
	resp, err := http.Post(srv.URL+"/v1/verdicts", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk: status %d", resp.StatusCode)
	}
	var out struct {
		Version uint64       `json:"version"`
		ETag    string       `json:"etag"`
		Results []bulkResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 2 || out.ETag != snap.ETag() || len(out.Results) != 4 {
		t.Fatalf("bulk envelope %+v", out)
	}
	want := []bulkResult{
		{Domain: "blocked.example", Country: "CN", Found: true, Blocked: true, Kind: "Cloudflare"},
		{Domain: "swap.example", Country: "CN", Found: true, Blocked: true, Kind: "Akamai"},
		{Domain: "clear.example", Country: "US", Found: true},
		{Domain: "nope.example", Country: "CN"},
	}
	for i, w := range want {
		if out.Results[i] != w {
			t.Errorf("bulk result %d = %+v, want %+v", i, out.Results[i], w)
		}
	}

	// Malformed and oversized batches are client errors.
	for name, bad := range map[string]string{
		"not json":      "{",
		"empty queries": `{"queries":[]}`,
		"over cap":      `{"queries":[` + strings.Repeat(`{"domain":"a","cc":"US"},`, maxBulkQueries) + `{"domain":"a","cc":"US"}]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/verdicts", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestVerdictLoadShedding(t *testing.T) {
	clock := &telemetry.Virtual{}
	srv, edge, reg := newEdgeServer(t, verdict.NewLimiter(1, 3, clock))
	edge.Swap(edgeSnapshot(t, 1))

	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/verdict?domain=blocked.example&cc=CN")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 3; i++ {
		if resp := get(); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d inside burst: status %d", i, resp.StatusCode)
		}
	}
	resp := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request beyond burst: status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	// The bulk endpoint sheds through the same bucket.
	bresp, err := http.Post(srv.URL+"/v1/verdicts", "application/json",
		strings.NewReader(`{"queries":[{"domain":"blocked.example","cc":"CN"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bulk beyond burst: status %d, want 429", bresp.StatusCode)
	}
	var shed int64
	for _, m := range reg.Snapshot().Counters {
		if m.Name == verdict.MetShed {
			shed = m.Value
		}
	}
	if shed != 2 {
		t.Fatalf("shed counter = %d, want 2", shed)
	}
	// Tokens refill with (virtual) time.
	clock.Advance(2 * time.Second)
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after refill: status %d, want 200", resp.StatusCode)
	}
}

func TestSnapshotUploadAndSwap(t *testing.T) {
	srv, _, reg := newEdgeServer(t, nil)
	snap := edgeSnapshot(t, 1)

	resp, err := http.Post(srv.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(snap.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Version uint64 `json:"version"`
		ETag    string `json:"etag"`
		Blocked int    `json:"blocked"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || meta.Version != 1 || meta.ETag != snap.ETag() || meta.Blocked != 1 {
		t.Fatalf("upload: status %d meta %+v", resp.StatusCode, meta)
	}

	// The edge serves the uploaded matrix immediately.
	vresp, err := http.Get(srv.URL + "/v1/verdict?domain=blocked.example&cc=CN")
	if err != nil {
		t.Fatal(err)
	}
	var v verdictBody
	if err := json.NewDecoder(vresp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if !v.Blocked || v.Version != 1 {
		t.Fatalf("post-upload verdict %+v", v)
	}

	// Corrupt uploads are rejected and do not disturb the live snapshot.
	bad := snap.Encode()
	bad[len(bad)-1] ^= 0xff
	resp, err = http.Post(srv.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload: status %d, want 400", resp.StatusCode)
	}
	var swaps int64
	for _, m := range reg.Snapshot().Counters {
		if m.Name == verdict.MetSwaps {
			swaps = m.Value
		}
	}
	if swaps != 1 {
		t.Fatalf("swap counter = %d, want 1 (corrupt upload must not count)", swaps)
	}
}
