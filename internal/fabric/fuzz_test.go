package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
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
		coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}})
		cfg := cfg
		cfg.Metrics = telemetry.New()
		stop := openPhase(coord, cfg)
		rec := post(coord, PathComplete, rawQuery, body)
		stop()
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

// openPhase starts coord running fabricInputs' phase under cfg and
// returns once the phase is open; stop cancels the phase, waits for it
// to end and returns what RunPhase returned.
func openPhase(coord *Coordinator, cfg scanner.Config) (stop func() error) {
	domains, countries, tasks, _ := fabricInputs()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		err = coord.RunPhase(ctx, domains, countries, tasks, cfg, &scanner.Collect{})
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
	return func() error {
		cancel()
		wg.Wait()
		return err
	}
}

// post sends one fabric request to coord's handler and returns the
// recorded answer.
func post(coord *Coordinator, path, rawQuery string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: path, RawQuery: rawQuery},
		Header: http.Header{},
		Body:   io.NopCloser(bytes.NewReader(body)),
	})
	return rec
}

// leaseState copies the open phase's lease state: each unit's, the
// last lease number issued, and the phase's spec.
func leaseState(coord *Coordinator) (map[int]unitState, uint64, []byte) {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	units := make(map[int]unitState, len(coord.phase.units))
	for seq, u := range coord.phase.units {
		units[seq] = *u
	}
	return units, coord.nextLease, coord.phase.specJSON
}

// FuzzLeaseHandler drives the lease handler with an arbitrary query
// and body against a coordinator with an open phase (phase 1) whose
// first n units, n drawn from leased, are leased to worker w1 and, when
// n > 0, unit 0 completed. The handler must never panic. A request it
// refuses is answered 4xx, or 200 with a wait, and changes no lease. A
// grant holds the phase's never-leased units or, when it has none, its
// outstanding (leased, not completed) ones: the first of them in
// canonical order, as many as the request asked for up to
// MaxLeaseBatch, each to the requesting worker under the next lease
// numbers. It changes no other unit, and carries the phase's spec
// exactly when the request named another phase.
func FuzzLeaseHandler(f *testing.F) {
	domains, countries, tasks, cfg := fabricInputs()
	plan := scanner.NewPlan(domains, countries, tasks, cfg)
	res, err := plan.ExecuteUnit(context.Background(), testNet, 0)
	if err != nil {
		f.Fatal(err)
	}
	done0, err := completionBody(plan.Unit(0), res)
	if err != nil {
		f.Fatal(err)
	}
	complete0 := fmt.Sprintf("phase=1&seq=0&lease=1&fp=%d&worker=w1", plan.Unit(0).Fingerprint)
	all := uint8(plan.NumUnits())

	genuine := `{"worker":"w2","max":4}`
	f.Add(uint8(2), "", []byte(genuine))
	f.Add(uint8(2), "", []byte(genuine[:len(genuine)/2]))
	f.Add(uint8(2), "", []byte(`{"worker":"`+strings.Repeat("w", maxRequestBytes)+`"}`))
	f.Add(uint8(2), "phase=1&seq=%zz", []byte("garbage"))
	f.Add(uint8(2), "worker=w1", []byte{})
	f.Add(uint8(2), "", []byte(`{"worker":"w2","max":-3}`))
	f.Add(all, "", []byte(`{"worker":"w2","max":1000000}`))
	f.Add(uint8(2), "", []byte(`{"worker":"w2","max":1.5}`))
	f.Add(uint8(2), "", []byte(`{"worker":"w2"} trailing`))
	f.Add(all, "", []byte(`{"worker":"w2","max":4,"phase":1}`))
	f.Add(all-2, "", []byte(`{"worker":"w2","max":4,"phase":1}`))
	f.Add(all, "", []byte(`{"worker":"w1","max":16,"phase":7}`))
	f.Add(uint8(0), "", []byte(`{"worker":"w2","max":64,"phase":1}`))

	f.Fuzz(func(t *testing.T, leased uint8, rawQuery string, body []byte) {
		coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}})
		stop := openPhase(coord, cfg)
		defer stop()
		if n := int(leased) % (int(all) + 1); n > 0 {
			rec := post(coord, PathLease, "", fmt.Appendf(nil, `{"worker":"w1","max":%d}`, n))
			if rec.Code == http.StatusOK {
				rec = post(coord, PathComplete, complete0, done0)
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("the set-up was answered %d: %s", rec.Code, rec.Body)
			}
		}
		before, next, spec := leaseState(coord)
		rec := post(coord, PathLease, rawQuery, body)
		after, nextAfter, _ := leaseState(coord)
		var grant LeaseGrant
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil {
				t.Fatalf("200 answer is not a lease grant: %v", err)
			}
		}
		if grant.Status != StatusUnit {
			if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
				t.Fatalf("refused with status %d, want 4xx: %s", rec.Code, rec.Body)
			}
			if !maps.Equal(before, after) || next != nextAfter {
				t.Fatalf("a refused request (status %d: %s) changed the lease state", rec.Code, rec.Body)
			}
			return
		}
		var req LeaseRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("granted %+v to an undecodable request: %v", grant, err)
		}
		var fresh, outstanding []int
		for seq := 0; seq < int(all); seq++ {
			if u := before[seq]; !u.completed && u.leased {
				outstanding = append(outstanding, seq)
			} else if !u.completed {
				fresh = append(fresh, seq)
			}
		}
		want := fresh
		if len(want) == 0 {
			want = outstanding
		}
		want = want[:min(len(want), max(req.Max, 1), MaxLeaseBatch)]
		if len(grant.Units) != len(want) || nextAfter != next+uint64(len(want)) {
			t.Fatalf("granted %d units (leases %d to %d) to a request for %d, want units %v", len(grant.Units), next, nextAfter, req.Max, want)
		}
		for i, u := range grant.Units {
			lease := unitState{leased: true, lease: next + uint64(i) + 1, worker: req.Worker}
			if u.Seq != want[i] || u.Lease != lease.lease || after[u.Seq] != lease {
				t.Fatalf("granted unit %d as lease %d (want units %v): before %+v, after %+v", u.Seq, u.Lease, want, before[u.Seq], after[u.Seq])
			}
			delete(before, u.Seq)
			delete(after, u.Seq)
		}
		if !maps.Equal(before, after) {
			t.Fatal("a grant changed units it did not grant")
		}
		if named := req.Phase == 1; named == (grant.Spec != nil) || !named && !bytes.Equal(grant.Spec, spec) {
			t.Fatalf("a request naming phase %d got a grant with spec %.40q", req.Phase, grant.Spec)
		}
	})
}
