package geoblock

import (
	"context"
	"reflect"
	"testing"

	"geoblock/internal/faults"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
)

// TestProbeJournalsAndReplays pins System.Probe's place in the study
// driver: under a Store it journals one phase keyed "cli", a second
// System on the reopened journal replays the identical sample, outage
// and coverage stream instead of fetching again, and the samples are
// the engine's own for the same inputs under phase "cli". IR is blacked
// out, so the stream carries an outage and a short coverage line.
func TestProbeJournalsAndReplays(t *testing.T) {
	countries := []CountryCode{"US", "IR", "CN"}
	blackout, _ := faults.Named("blackout")
	probe := func(store *RunStore) (*System, []string, *scanner.Collect) {
		t.Helper()
		sys := New(Options{Scale: 0.02, Seed: 11, Store: store})
		sys.Net().SetFaults(faults.New(1).Country("IR", blackout))
		var domains []string
		for _, d := range sys.World.Top10K()[:6] {
			domains = append(domains, d.Name)
		}
		var col scanner.Collect
		sys.Probe(domains, countries, 2, nil, &col)
		if err := sys.Err(); err != nil {
			t.Fatalf("probe aborted: %v", err)
		}
		return sys, domains, &col
	}

	dir := t.TempDir()
	st, err := OpenRunStore(dir, RunStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys, domains, first := probe(st)
	phases := st.Phases()
	st.Close()
	if len(phases) != 1 || phases[0].Key != "cli" || phases[0].Name != "cli" || !phases[0].Done {
		t.Fatalf("journal phases = %+v, want one complete phase keyed cli", phases)
	}
	if len(first.Outages) == 0 || first.Coverage.Full() {
		t.Fatalf("blacked-out IR left no outage (outages %+v, coverage %+v)", first.Outages, first.Coverage)
	}

	reg := telemetry.New()
	reopened, err := OpenRunStore(dir, RunStoreOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	_, _, replayed := probe(reopened)
	if !reflect.DeepEqual(replayed, first) {
		t.Fatalf("the replayed stream differs from the journaled one:\n%+v\n%+v", replayed, first)
	}
	if n := reg.RuntimeCounter(runstore.MetRecordsReplayed).Value(); n != int64(len(first.Samples)) {
		t.Fatalf("replayed %d records, want all %d samples", n, len(first.Samples))
	}

	cfg := scanner.DefaultConfig()
	cfg.Phase = "cli"
	cfg.Samples = 2
	var engine scanner.Collect
	if err := scanner.Run(context.Background(), sys.Net(), domains, countries,
		scanner.CrossProduct(len(domains), len(countries)), cfg, &engine); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(engine.Samples, first.Samples) {
		t.Fatal("Probe's samples differ from scanner.Run's for the same inputs")
	}
}
