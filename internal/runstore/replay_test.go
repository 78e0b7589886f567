package runstore

import (
	"fmt"
	"testing"

	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
)

// TestResumeReadsEachPhaseOnce resumes a journal of many complete
// phases and counts the records replay decodes. Each phase is read
// from just past its begin record to its last checkpointed sample —
// its samples and the checkpoints between them — so a full resume
// decodes fewer records than the journal holds, instead of the whole
// journal once per phase.
func TestResumeReadsEachPhaseOnce(t *testing.T) {
	const phases, shards, perShard = 40, 3, 4
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	for p := 0; p < phases; p++ {
		ph, err := st.beginPhase(fmt.Sprintf("p%d", p), "phase", uint64(p))
		if err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < shards; seq++ {
			for i := 0; i < perShard; i++ {
				s := scanner.Sample{Domain: int32(i), Country: int16(seq), Seed: uint64(p<<16 | seq<<8 | i)}
				if err := st.journalSample(ph, s); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.journalCheckpoint(ph, Checkpoint{Seq: seq, Country: "US", Tasks: perShard, Samples: perShard}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.completePhase(ph); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	st2 := mustOpen(t, dir, Options{Metrics: reg})
	defer st2.Close()
	for p := 0; p < phases; p++ {
		var col scanner.Collect
		err := st2.Scan(Scan{Key: fmt.Sprintf("p%d", p), Fingerprint: uint64(p), Sink: &col,
			Run: func(scanner.Config, scanner.Sink) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		if len(col.Samples) != shards*perShard {
			t.Fatalf("phase %d replayed %d samples, want %d", p, len(col.Samples), shards*perShard)
		}
		for _, s := range col.Samples {
			if int(s.Seed>>16) != p {
				t.Fatalf("phase %d replayed a sample of phase %d", p, s.Seed>>16)
			}
		}
	}
	journal := phases * (1 + shards*perShard + shards + 1)
	want := phases * (shards*perShard + shards - 1)
	if got := reg.RuntimeCounter(MetRecordsRead).Value(); got != int64(want) {
		t.Fatalf("resume decoded %d records, want %d (the journal holds %d)", got, want, journal)
	}
}
