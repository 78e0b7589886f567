package geoblock

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"geoblock/internal/fabric"
	"geoblock/internal/telemetry"
)

// leaseCounter wraps a coordinator's handler and follows, from the
// lease answers it serves and the completions it forwards, the lease
// requests that granted units, the units they granted, the grants that
// re-leased units, and how many units each worker holds: a unit is held
// from its grant to the completion its holder reports. A re-leased
// unit is held by each worker it was granted to until that worker
// reports it.
type leaseCounter struct {
	next http.Handler

	mu            sync.Mutex
	grants, units int
	releases      int             // grants of units granted before
	released      int             // the units those grants held
	granted       map[[2]int]bool // (phase, seq) of every unit granted
	held          map[string]int  // units each worker holds
	overlaps      int             // grants that left two workers holding units
}

func (lc *leaseCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == fabric.PathComplete {
		lc.mu.Lock()
		lc.held[r.URL.Query().Get("worker")]--
		lc.mu.Unlock()
	}
	if r.URL.Path != fabric.PathLease {
		lc.next.ServeHTTP(w, r)
		return
	}
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	var req fabric.LeaseRequest
	_ = json.Unmarshal(body, &req)
	rec := httptest.NewRecorder()
	lc.next.ServeHTTP(rec, r)
	var g fabric.LeaseGrant
	if json.Unmarshal(rec.Body.Bytes(), &g) == nil && g.Status == fabric.StatusUnit {
		lc.mu.Lock()
		lc.grants++
		lc.units += len(g.Units)
		if lc.granted[[2]int{g.Phase, g.Units[0].Seq}] {
			// A grant never mixes re-leased and fresh units.
			lc.releases++
			lc.released += len(g.Units)
		}
		for _, u := range g.Units {
			lc.granted[[2]int{g.Phase, u.Seq}] = true
		}
		lc.held[req.Worker] += len(g.Units)
		holders := 0
		for _, n := range lc.held {
			if n > 0 {
				holders++
			}
		}
		if holders >= 2 {
			lc.overlaps++
		}
		lc.mu.Unlock()
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// counts reads the lease requests that granted units, the units they
// granted, the grants that re-leased units and the units they held, and
// the grants that left two workers holding units.
func (lc *leaseCounter) counts() (grants, units, releases, released, overlaps int) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.grants, lc.units, lc.releases, lc.released, lc.overlaps
}

// timedFabricStudy runs the Top-10K study distributed over nWorkers
// worker loops and returns the study's wall-clock duration and its
// lease counts. No worker dies, so a unit is re-leased only at a
// phase's tail, to a worker that found no never-leased unit left while
// another still held it; the measurement includes those re-runs.
func timedFabricStudy(t *testing.T, nWorkers int) (time.Duration, *leaseCounter) {
	t.Helper()
	wcfg := matrixWorld()
	reg := telemetry.New()
	coord := NewFabric(FabricOptions{
		Study:   FabricStudySpec{World: wcfg},
		Metrics: reg,
	})
	leases := &leaseCounter{next: coord.Handler(), granted: map[[2]int]bool{}, held: map[string]int{}}
	srv := httptest.NewServer(leases)
	defer srv.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	workerErrs := make([]error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewFabricWorker(ctx, FabricWorkerOptions{
				Coordinator: srv.URL, Name: "w" + string(rune('a'+i)), Sleep: fabricYield,
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}

	wall := telemetry.Wall{}
	start := wall.Now()
	s := New(Options{World: &wcfg, Metrics: reg, Fabric: coord})
	s.RunTop10K(Top10KConfig{})
	if err := s.Err(); err != nil {
		t.Fatalf("fabric study with %d workers aborted: %v", nWorkers, err)
	}
	coord.FinishStudy()
	wg.Wait()
	elapsed := wall.Now().Sub(start)
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return elapsed, leases
}

// TestFabricScalesWithWorkers guards against the per-unit leasing
// regression, which made every fabric configuration slower than a
// single worker (4 workers ran ~43% behind), because each tiny unit
// cost a full coordinator round trip.
//
// Its two witnesses read no wall clock and run always, in a two-worker
// study. Lease requests that granted units divided by the units
// granted must stay at most 0.25: batches of DefaultLeaseBatch (16)
// put it near 1/16, per-unit leasing puts it at 1. And at some grant
// both workers must hold units, so the two scanned at the same time
// rather than one after the other.
//
// With GEOBLOCK_FABRIC_SCALING=full (make fabric-test, which CI runs
// on its own) it also compares wall time: 2 workers have to beat 1 on
// the same bench workload (the matrixWorld Top-10K study). Best-of-N
// absorbs scheduler noise; the comparison is relative, so machine speed
// is irrelevant, but it needs both CPUs free, which a parallel
// `go test ./...` on a 2-vCPU box does not leave it.
func TestFabricScalesWithWorkers(t *testing.T) {
	_, leases := timedFabricStudy(t, 2)
	grants, units, releases, released, overlaps := leases.counts()
	ratio := float64(grants) / float64(max(units, 1))
	t.Logf("fabric study: %d granting lease requests for %d units (%.3f per unit), %d of them re-leasing %d units; %d left both workers holding units",
		grants, units, ratio, releases, released, overlaps)
	if units == 0 || ratio > 0.25 {
		t.Fatalf("%d granting lease requests for %d units (%.3f per unit, bound 0.25): the lease path is leasing unit by unit again",
			grants, units, ratio)
	}
	if overlaps == 0 {
		t.Fatal("no lease grant left both workers holding units: the two workers never held work at the same time")
	}
	if os.Getenv("GEOBLOCK_FABRIC_SCALING") != "full" {
		return
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 CPUs for worker parallelism to be observable")
	}
	const attempts = 3
	var best1, best2 time.Duration
	for i := 0; i < attempts; i++ {
		d1, _ := timedFabricStudy(t, 1)
		d2, _ := timedFabricStudy(t, 2)
		if best1 == 0 || d1 < best1 {
			best1 = d1
		}
		if best2 == 0 || d2 < best2 {
			best2 = d2
		}
		if best2 < best1 {
			break
		}
	}
	t.Logf("fabric study: 1 worker %v, 2 workers %v (best of ≤%d)", best1, best2, attempts)
	if best2 >= best1 {
		t.Fatalf("2 workers (%v) did not beat 1 worker (%v): the lease path is serializing the fabric again", best2, best1)
	}
}
