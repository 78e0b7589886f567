// The resume orchestration: Store.Scan wraps one engine invocation in
// journaling, replay, and checkpoint-driven skipping.
//
// Division of labor with the engine: the store replays a phase's
// persisted samples into the caller's sink and restores the journaled
// per-shard metrics BEFORE the engine runs, then hands the
// engine a scanner.Resume marking those shards done. The engine
// credits the skipped shards' counters and outage accounting itself (see scanner.Config.Resume), so a resumed run's deterministic
// telemetry, paper tables, and sample stream are byte-identical to an
// uninterrupted run's. For a phase the journal already saw complete,
// the store still calls Run — with every shard skipped and the inner,
// non-journaling sink — so the engine recomputes the accounting with
// zero fetching instead of the store duplicating that logic.
package runstore

import (
	"errors"
	"fmt"

	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
)

// Scan describes one journaled engine invocation.
type Scan struct {
	// Key names the phase in the journal. It must be unique per scan
	// invocation across the whole study (the pipeline suffixes repeat
	// invocations), and stable across runs so a resumed study finds its
	// own work.
	Key string
	// Fingerprint digests the scan's identity — world seed, inputs,
	// sampling parameters (never Concurrency). A journal whose
	// fingerprint for Key disagrees belongs to a different study and
	// resuming from it errors rather than splices mismatched data.
	Fingerprint uint64
	// Cfg is the engine configuration. The store sets Cfg.Resume.
	Cfg scanner.Config
	// Sink receives the phase's samples — replayed and live alike, in
	// canonical order.
	Sink scanner.Sink
	// Run invokes the engine with the (possibly adjusted) config and
	// the store's journaling sink. It exists so one Scan type serves
	// both the residential (scanner.Run) and VPS (scanner.RunVPS)
	// engines.
	Run func(cfg scanner.Config, sink scanner.Sink) error
}

// Scan runs one journaled phase: a fresh phase is announced and
// journaled as it streams; a partially journaled phase replays its
// committed shards into sc.Sink and resumes the engine past them; a
// complete phase replays everything and re-runs only the engine's
// accounting. The caller's sink sees the identical sample, outage,
// and coverage sequence in every case.
func (s *Store) Scan(sc Scan) error {
	s.mu.Lock()
	ph := s.phases[sc.Key]
	s.mu.Unlock()

	cfg := sc.Cfg
	if ph == nil {
		var err error
		ph, err = s.beginPhase(sc.Key, cfg.Phase, sc.Fingerprint)
		if err != nil {
			return err
		}
		return s.runJournaled(sc, cfg, ph)
	}

	if ph.fingerprint != sc.Fingerprint {
		return fmt.Errorf("runstore: phase %q fingerprint %x does not match journal's %x — the journal belongs to a different study",
			sc.Key, sc.Fingerprint, ph.fingerprint)
	}
	lost, err := s.replayPhase(ph, sc.Sink, cfg.Metrics)
	if err != nil {
		return err
	}
	cfg.Resume = &scanner.Resume{Shards: len(lost), Lost: lost}
	if ph.done {
		// Nothing left to fetch: run the engine with every shard
		// skipped and the inner sink, purely to recompute the
		// counters and the outage/coverage records.
		return sc.Run(cfg, sc.Sink)
	}
	return s.runJournaled(sc, cfg, ph)
}

// runJournaled drives the engine through the journaling sink and
// closes the phase on success.
func (s *Store) runJournaled(sc Scan, cfg scanner.Config, ph *phaseState) error {
	js := &journalSink{store: s, phase: ph, next: sc.Sink}
	if err := sc.Run(cfg, js); err != nil {
		return err
	}
	if js.err != nil {
		return js.err
	}
	return s.completePhase(ph)
}

// replayPhase streams ph's committed samples from disk into sink in
// journal order — which is canonical order, because the engine's
// Assembly journals shards at their canonical emission point —
// crediting the sink-layer counters and adding each checkpoint's
// metrics to reg, then returns the per-shard loss reasons for
// the engine's Resume. It reads from the phase's start and stops at
// its last checkpointed sample, so resuming a journal decodes each
// record at most once. The store stays open for appends throughout;
// replay reads the journal at offsets, which appends do not move.
func (s *Store) replayPhase(ph *phaseState, sink scanner.Sink, reg *telemetry.Registry) ([]scanner.OutageReason, error) {
	s.mu.Lock()
	checkpoints := append([]Checkpoint(nil), ph.checkpoints...)
	s.mu.Unlock()

	want := 0
	lost := make([]scanner.OutageReason, len(checkpoints))
	for i, cp := range checkpoints {
		want += cp.Samples
		lost[i] = cp.Lost
	}

	var replayed, read int
	var bodyBytes int64
	if want > 0 {
		_, err := s.scan(ph.start, func(rec Record, _ int64) error {
			read++
			if rec.Type != recSample || rec.Phase != ph.id {
				return nil
			}
			sink.Emit(rec.Sample)
			replayed++
			bodyBytes += int64(rec.Sample.BodyLen)
			if replayed == want {
				return errReplayed
			}
			return nil
		})
		if err != nil && err != errReplayed {
			return nil, err
		}
	}
	s.opts.Metrics.RuntimeCounter(MetRecordsRead).Add(int64(read))
	if replayed != want {
		return nil, fmt.Errorf("runstore: phase %q journal holds %d of %d checkpointed samples", ph.key, replayed, want)
	}

	if reg != nil {
		reg.Counter(scanner.MetSinkSamples).Add(int64(replayed))
		reg.Counter(scanner.MetSinkBytes).Add(bodyBytes)
		for _, cp := range checkpoints {
			cp.Metrics.AddTo(reg, cp.Country)
		}
	}
	s.opts.Metrics.RuntimeCounter(MetRecordsReplayed).Add(int64(replayed))
	return lost, nil
}

// errReplayed stops a phase's replay at its last checkpointed sample.
var errReplayed = errors.New("runstore: phase replayed")

// journalSink is the engine-facing tee: every sample and checkpoint is
// journaled and then forwarded to the wrapped sink; outages and
// coverage are only forwarded, since resume recomputes them from the
// checkpoints' loss reasons. The first store error latches — later
// records still flow to the wrapped sink (the engine does not observe
// sink errors) and Store.Scan surfaces the latched error after the
// run.
type journalSink struct {
	store *Store
	phase *phaseState
	next  scanner.Sink
	err   error
}

func (j *journalSink) note(err error) {
	if j.err == nil && err != nil {
		j.err = err
	}
}

func (j *journalSink) Emit(s scanner.Sample) {
	j.note(j.store.journalSample(j.phase, s))
	j.next.Emit(s)
}

func (j *journalSink) EmitShardDone(d scanner.ShardDone) {
	cp := Checkpoint{Seq: d.Seq, Country: d.Country, Tasks: d.Tasks, Samples: d.Samples, Lost: d.Lost, Metrics: d.Metrics}
	j.note(j.store.journalCheckpoint(j.phase, cp))
	if ss, ok := j.next.(scanner.ShardSink); ok {
		ss.EmitShardDone(d)
	}
}

func (j *journalSink) EmitOutage(o scanner.Outage) {
	if os, ok := j.next.(scanner.OutageSink); ok {
		os.EmitOutage(o)
	}
}

func (j *journalSink) EmitCoverage(c scanner.Coverage) {
	if os, ok := j.next.(scanner.OutageSink); ok {
		os.EmitCoverage(c)
	}
}
