package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/worldgen"
)

// FuzzCompleteHandler drives the completion handler end to end — query
// string and body — against a fresh coordinator running one fixed
// phase into a fresh registry, so an accepted completion's metrics
// reach the registry. The seeds include the genuine unit-0 completion
// and every bad completion of badCompletions. The handler must never
// panic, and it must never answer 200 with an accepted or duplicate ack
// for a payload that is not the named unit's output. (A stale-phase ack
// is 200 too, but only for a query that names another phase.)
func FuzzCompleteHandler(f *testing.F) {
	domains, countries, tasks, cfg := fabricInputs()
	plan := scanner.NewPlan(domains, countries, tasks, cfg)
	refs := make([]scanner.UnitResult, plan.NumUnits())
	for seq := range refs {
		res, err := plan.ExecuteUnit(context.Background(), testNet, seq)
		if err != nil {
			f.Fatal(err)
		}
		refs[seq] = res
	}
	unit := plan.Unit(0)
	query := fmt.Sprintf("phase=1&seq=0&lease=1&fp=%d&worker=fuzz", unit.Fingerprint)
	genuine, err := completionBody(unit, refs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(query, genuine)
	for _, body := range badCompletions(f, unit, refs[0]) {
		f.Add(query, body)
	}
	f.Add("phase=2&seq=0&lease=1&fp=0", genuine)
	f.Add("phase=1&seq=%zz", []byte("garbage"))

	f.Fuzz(func(t *testing.T, rawQuery string, body []byte) {
		coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}, LeaseTTL: -1})
		cfg := cfg
		cfg.Metrics = telemetry.New()
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = coord.RunPhase(ctx, domains, countries, tasks, cfg, &scanner.Collect{})
		}()
		for {
			coord.mu.Lock()
			ph := coord.phase
			coord.mu.Unlock()
			if ph != nil {
				break
			}
			runtime.Gosched()
		}

		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: PathComplete, RawQuery: rawQuery},
			Header: http.Header{},
			Body:   io.NopCloser(bytes.NewReader(body)),
		})
		cancel()
		wg.Wait()
		if rec.Code != http.StatusOK {
			return
		}

		var ack Ack
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatalf("200 answer is not an ack: %v", err)
		}
		q, _ := url.ParseQuery(rawQuery)
		if ack.Status == "stale-phase" {
			if id, err := strconv.Atoi(q.Get("phase")); err == nil && id == 1 {
				t.Fatal("the active phase answered stale-phase")
			}
			return
		}
		seq, err := strconv.Atoi(q.Get("seq"))
		if err != nil || seq < 0 || seq >= len(refs) {
			t.Fatalf("answered %+v to a completion of no unit (seq %q)", ack, q.Get("seq"))
		}
		samples, cp, err := runstore.DecodeShardFrames(body)
		if err != nil {
			t.Fatalf("answered %+v to an undecodable payload: %v", ack, err)
		}
		want := refs[seq].Samples
		if cp.Lost > scanner.OutageDark || len(samples) != len(want) {
			t.Fatalf("answered %+v to unit %d with loss reason %d and %d of %d samples", ack, seq, cp.Lost, len(samples), len(want))
		}
		m := cp.Metrics
		if m == nil || m.Attempts > int64(len(want)*(1+cfg.Retries)) {
			t.Fatalf("answered %+v to unit %d with metrics %+v", ack, seq, m)
		}
		if f := m.Faults; f.Dark+f.Churn+f.ExitDown+f.Stall+f.Truncate-m.Probes > m.Attempts*scanner.MaxRedirects {
			t.Fatalf("answered %+v to unit %d with injected faults %+v past its %d attempts and %d probes", ack, seq, f, m.Attempts, m.Probes)
		}
		for i, s := range samples {
			if w := want[i]; s.Domain != w.Domain || s.Country != w.Country || s.Attempt != w.Attempt {
				t.Fatalf("answered %+v to unit %d with sample %d out of canonical order", ack, seq, i)
			}
		}
	})
}
