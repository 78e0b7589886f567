package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"geoblock/internal/faults"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/worldgen"
)

// TestFabricTracePropagation runs one traced phase through a
// coordinator, a chaos-killed victim, and two survivors, and checks
// both sides of the trace plumbing: the coordinator's merged stream
// (deterministic unit events shipped upstream plus its own
// runtime-class lease events) and the victim's local black box (its
// worker.kill event and the flight dump the kill triggers).
func TestFabricTracePropagation(t *testing.T) {
	domains, countries, tasks, cfg := fabricInputs()
	reg := telemetry.New()
	cfg.Metrics = reg
	coordTr := trace.New(trace.Root(11))
	coord := New(Options{
		Study:   StudySpec{World: worldgen.TestConfig()},
		Metrics: reg,
		Trace:   coordTr,
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	col := &scanner.Collect{}
	phaseErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		phaseErr <- coord.RunPhase(ctx, domains, countries, tasks, cfg, col)
	}()

	// The victim executes one unit and dies before reporting it; its
	// tracer keeps the local record and dumps the flight ring.
	var dump strings.Builder
	victimTr := trace.New(trace.Root(12)).WithFlightSink(&dump)
	victim, err := NewWorker(ctx, WorkerOptions{
		Coordinator: srv.URL, Name: "victim", Sleep: yield,
		Kill:  faults.New(7).WorkerDeath(1),
		Trace: victimTr,
	})
	if err != nil {
		t.Fatalf("victim worker: %v", err)
	}
	if err := victim.Run(ctx); !errors.Is(err, ErrKilled) {
		t.Fatalf("victim died with %v, want ErrKilled", err)
	}
	if !hasEvent(victimTr, "worker.kill", "killed") {
		t.Error("victim trace has no worker.kill event")
	}
	if victimTr.FlightDumps() != 1 {
		t.Errorf("victim flight dumps = %d, want 1", victimTr.FlightDumps())
	}
	if !strings.Contains(dump.String(), "killed by chaos hook") {
		t.Errorf("flight dump missing the kill reason:\n%s", dump.String())
	}

	workerTrs := make([]*trace.Tracer, 2)
	workerErrs := make([]error, 2)
	for i := range workerTrs {
		workerTrs[i] = trace.New(trace.Root(uint64(20 + i)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(ctx, WorkerOptions{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("w%d", i),
				Sleep:       yield,
				Trace:       workerTrs[i],
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}
	if err := <-phaseErr; err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	coord.FinishStudy()
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// The survivors executed units and said so locally.
	execs := 0
	for _, tr := range workerTrs {
		if hasEvent(tr, "worker.exec", "ok") {
			execs++
		}
	}
	if execs == 0 {
		t.Error("no surviving worker recorded a worker.exec event")
	}

	// The coordinator's stream merged the workers' deterministic unit
	// events (sessions only ever open on workers here) and recorded its
	// own runtime lease protocol, including the re-lease of the victim's
	// outstanding units and at least one completed unit.
	snap := coordTr.Snapshot()
	if !snapHas(snap, "session.open", "", false) {
		t.Error("coordinator trace has no worker-executed session.open events")
	}
	if !snapHas(snap, "lease", "reissued", true) {
		t.Error("coordinator trace has no re-lease event")
	}
	if !snapHas(snap, "unit.complete", "ok", true) {
		t.Error("coordinator trace has no completed unit event")
	}
	// Every merged deterministic event belongs to the coordinator's
	// trace ID: worker-minted spans agree with the coordinator's
	// derivation.
	for _, ev := range snap.Deterministic().Events {
		if ev.Trace != coordTr.Root().Trace {
			t.Fatalf("merged event %q carries trace %s, want %s", ev.Name, ev.Trace, coordTr.Root().Trace)
		}
	}
}

func hasEvent(tr *trace.Tracer, name, outcome string) bool {
	return snapHas(tr.Snapshot(), name, outcome, true)
}

func snapHas(snap *trace.Trace, name, outcome string, runtime bool) bool {
	for _, ev := range snap.Events {
		if ev.Name == name && ev.Runtime == runtime && (outcome == "" || ev.Outcome == outcome) {
			return true
		}
	}
	return false
}
