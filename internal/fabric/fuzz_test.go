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
		coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}, LeaseTTL: -1})
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
// returns once the phase is open; stop cancels the phase and waits for
// it to end.
func openPhase(coord *Coordinator, cfg scanner.Config) (stop func()) {
	domains, countries, tasks, _ := fabricInputs()
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
	return func() {
		cancel()
		wg.Wait()
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

// leaseState copies the open phase's lease state: each unit's, and the
// last lease number issued.
func leaseState(coord *Coordinator) (map[int]unitState, uint64) {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	units := make(map[int]unitState, len(coord.phase.units))
	for seq, u := range coord.phase.units {
		units[seq] = *u
	}
	return units, coord.nextLease
}

// leasedCoordinator opens fabricInputs' phase on a coordinator whose
// leases run on a virtual clock, so none expires, and leases units 0
// and 1 to worker w1 as leases 1 and 2.
func leasedCoordinator(t *testing.T) (*Coordinator, func()) {
	_, _, _, cfg := fabricInputs()
	coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}})
	stop := openPhase(coord, cfg)
	if rec := post(coord, PathLease, "", []byte(`{"worker":"w1","max":2}`)); rec.Code != http.StatusOK {
		stop()
		t.Fatalf("the set-up lease was answered %d: %s", rec.Code, rec.Body)
	}
	return coord, stop
}

// requestSeeds are the seeds of FuzzLeaseHandler and FuzzExtendHandler
// beyond each one's genuine request: that request truncated, a body
// over maxRequestBytes, and garbage.
func requestSeeds(f *testing.F, genuine string) {
	f.Add("", []byte(genuine))
	f.Add("", []byte(genuine[:len(genuine)/2]))
	f.Add("", []byte(`{"worker":"`+strings.Repeat("w", maxRequestBytes)+`"}`))
	f.Add("phase=1&seq=%zz", []byte("garbage"))
	f.Add("worker=w1", []byte{})
}

// refused checks an answer the coordinator gave a request it refused:
// a 4xx status, or a 200 that grants nothing, and no change to any
// lease.
func refused(t *testing.T, rec *httptest.ResponseRecorder, before, after map[int]unitState, next, nextAfter uint64) {
	t.Helper()
	if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
		t.Fatalf("refused with status %d, want 4xx: %s", rec.Code, rec.Body)
	}
	if !maps.Equal(before, after) || next != nextAfter {
		t.Fatalf("a refused request (status %d: %s) changed the lease state", rec.Code, rec.Body)
	}
}

// FuzzLeaseHandler drives the lease handler with an arbitrary query
// and body against a coordinator with an open phase whose first two
// units are leased. The handler must never panic. A request it refuses
// is answered 4xx, or 200 with a wait, and changes no lease; a grant
// leases at most the batch the request asked for, each granted unit to
// the requesting worker under the next lease numbers, and changes no
// other unit.
func FuzzLeaseHandler(f *testing.F) {
	requestSeeds(f, `{"worker":"w2","max":4}`)
	f.Add("", []byte(`{"worker":"w2","max":-3}`))
	f.Add("", []byte(`{"worker":"w2","max":1000000}`))
	f.Add("", []byte(`{"worker":"w2","max":1.5}`))
	f.Add("", []byte(`{"worker":"w2"} trailing`))

	f.Fuzz(func(t *testing.T, rawQuery string, body []byte) {
		coord, stop := leasedCoordinator(t)
		defer stop()
		before, next := leaseState(coord)
		rec := post(coord, PathLease, rawQuery, body)
		after, nextAfter := leaseState(coord)
		var grant LeaseGrant
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil {
				t.Fatalf("200 answer is not a lease grant: %v", err)
			}
		}
		if grant.Status != StatusUnit {
			refused(t, rec, before, after, next, nextAfter)
			return
		}
		var req LeaseRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("granted %+v to an undecodable request: %v", grant, err)
		}
		if n := len(grant.Units); n == 0 || n > min(max(req.Max, 1), MaxLeaseBatch) || nextAfter != next+uint64(n) {
			t.Fatalf("granted %d units (leases %d to %d) to a request for %d", n, next, nextAfter, req.Max)
		}
		deadline := coord.clock.Now().Add(coord.ttl)
		for i, u := range grant.Units {
			want := unitState{leased: true, lease: next + uint64(i) + 1, worker: req.Worker, deadline: deadline}
			if b := before[u.Seq]; b.leased || b.completed || after[u.Seq] != want || u.Lease != want.lease {
				t.Fatalf("granted unit %d as lease %d: before %+v, after %+v", u.Seq, u.Lease, b, after[u.Seq])
			}
			delete(before, u.Seq)
			delete(after, u.Seq)
		}
		if !maps.Equal(before, after) {
			t.Fatal("a grant changed units it did not grant")
		}
	})
}

// FuzzExtendHandler drives the extend handler with an arbitrary query
// and body against a coordinator with an open phase whose first two
// units are leased. The handler must never panic. A request it refuses
// is answered 4xx, or 200 with a stale ack, and changes no lease; an
// extension names a unit leased under that lease number, and changes
// that unit's deadline alone.
func FuzzExtendHandler(f *testing.F) {
	requestSeeds(f, `{"worker":"w1","phase":1,"seq":0,"lease":1}`)
	f.Add("", []byte(`{"worker":"w1","phase":1,"seq":1,"lease":1}`))
	f.Add("", []byte(`{"worker":"w1","phase":2,"seq":0,"lease":1}`))
	f.Add("", []byte(`{"worker":"w1","phase":1,"seq":-1,"lease":0}`))
	f.Add("", []byte(`{"worker":"w1","phase":1,"seq":5,"lease":0}`))

	f.Fuzz(func(t *testing.T, rawQuery string, body []byte) {
		coord, stop := leasedCoordinator(t)
		defer stop()
		before, next := leaseState(coord)
		rec := post(coord, PathExtend, rawQuery, body)
		after, nextAfter := leaseState(coord)
		var ack Ack
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("200 answer is not an ack: %v", err)
			}
		}
		if !ack.OK {
			refused(t, rec, before, after, next, nextAfter)
			return
		}
		var req ExtendRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("extended a lease for an undecodable request: %v", err)
		}
		b, a := before[req.Seq], after[req.Seq]
		if !b.leased || b.completed || b.lease != req.Lease || req.Phase != 1 || next != nextAfter {
			t.Fatalf("extended %+v, which holds no such lease: %+v", req, b)
		}
		b.deadline = a.deadline
		if a != b || !a.deadline.Equal(coord.clock.Now().Add(coord.ttl)) {
			t.Fatalf("extending %+v left the unit %+v, was %+v", req, a, before[req.Seq])
		}
		delete(before, req.Seq)
		delete(after, req.Seq)
		if !maps.Equal(before, after) {
			t.Fatal("an extension changed units it did not name")
		}
	})
}
