// Package runstore is the persistence layer: an append-only,
// crash-safe journal of scanner samples plus a checkpoint index of
// completed work, so a long study interrupted at any byte resumes by
// replaying what it has instead of refetching it.
//
// Layout: a run directory holds one file, journal, which opens with an
// 8-byte magic and then carries length-prefixed, CRC-32C-checked
// records (see record.go).
//
// Durability discipline: sample records are buffered only by the OS —
// the store issues no fsync for them — while every checkpoint and
// phase record is fsync'd before the append returns. A checkpoint is
// therefore the commit point for the samples before it: after a crash,
// recovery truncates the journal back to the last fsync'd non-sample
// record, dropping the torn tail record (if any) and any orphan
// samples of a shard that never checkpointed. Those shards simply run
// again on resume. A frame that is torn, fails its CRC or does not
// decode ends the journal's valid prefix wherever it lies, at the tail
// or before it: recovery cuts back to the last commit before that
// frame rather than error, and resume refetches what was cut.
// Recovery errors only on I/O failures, a foreign magic, and valid
// records that contradict each other.
package runstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
)

// ErrSevered is returned by journal writes after the fault-injection
// crash hook fired: the store has written a deliberately torn record
// and refuses all further appends, exactly as a killed process would.
var ErrSevered = errors.New("runstore: store severed by crash hook")

// journalName is the run directory's one journal file.
const journalName = "journal"

// Options tunes a Store.
type Options struct {
	// Metrics, when non-nil, receives the store's counters and the
	// fsync latency histogram (see metrics.go; all runtime-class).
	Metrics *telemetry.Registry
	// Crash, when non-nil, is consulted before every append with the
	// number of records this process has written so far; returning true
	// severs the store mid-record (see ErrSevered). It is the chaos
	// matrix's kill -9: everything after the last fsync'd record may be
	// torn. Production runs leave it nil.
	Crash func(written int64) bool
}

// phaseState is the in-memory index of one journaled phase.
type phaseState struct {
	id          int
	key         string
	name        string
	fingerprint uint64
	done        bool
	checkpoints []Checkpoint
	// start is the byte offset just past the phase's begin record:
	// where replay starts reading.
	start int64
}

func (ph *phaseState) samples() int {
	n := 0
	for _, cp := range ph.checkpoints {
		n += cp.Samples
	}
	return n
}

// PhaseInfo is the exported view of one journaled phase.
type PhaseInfo struct {
	// Key is the pipeline's phase key (unique per scan invocation).
	Key string
	// Name is the scanner phase name the scan ran under.
	Name string
	// Done reports whether the phase completed.
	Done bool
	// Shards is the number of checkpointed (committed) shards.
	Shards int
	// Samples is the number of replayable samples across them.
	Samples int
}

// Store is an open run journal. Methods are safe for concurrent use,
// though scans themselves run one phase at a time.
type Store struct {
	opts Options
	f    *os.File // the journal, open for append; replay reads it at offsets

	mu      sync.Mutex
	phases  map[string]*phaseState
	byID    []*phaseState
	size    int64 // the journal's length in bytes
	written int64 // records appended by this process (crash-hook clock)
	severed bool
	closed  bool
}

// Open opens (or creates) the journal in dir and recovers its index:
// its records validate against their CRCs, and the journal is
// truncated back to its commit point — the offset after the last
// fsync'd non-sample record — dropping a torn tail and any orphan
// samples beyond it. A fresh directory starts an empty journal. A
// directory in the segmented layout of earlier builds is refused, and
// Open changes none of its files.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := refuseSegmented(dir); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, phases: map[string]*phaseState{}, f: f}
	// Nothing else holds s yet, so the lock is uncontended; taking it
	// keeps recovery inside the mu discipline every other method obeys.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.recoverLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// refuseSegmented errors when dir holds a journal in the layout
// earlier builds wrote — numbered seg-*.log files listed by a
// MANIFEST — which this build cannot resume.
func refuseSegmented(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if seg, _ := filepath.Match("seg-*.log", e.Name()); seg || e.Name() == "MANIFEST" {
			return fmt.Errorf("runstore: %s holds a segmented journal (a MANIFEST and seg-*.log files) from an earlier build; this build writes one %q file in format %q and cannot resume it", dir, journalName, journalMagic)
		}
	}
	return nil
}

// recoverLocked checks the journal's magic, rebuilds the index from its
// records, and truncates the journal to its commit point. Callers hold
// s.mu.
func (s *Store) recoverLocked() error {
	magic := make([]byte, len(journalMagic))
	n, err := s.f.ReadAt(magic, 0)
	if err != nil && err != io.EOF {
		return err
	}
	if n < len(magic) && strings.HasPrefix(journalMagic, string(magic[:n])) {
		// A fresh journal, or one torn while it was created: a tail
		// torn at offset 0. It starts over as the magic alone, fsync'd
		// before any commit can follow it.
		if err := s.f.Truncate(0); err != nil {
			return err
		}
		if _, err := s.f.Write([]byte(journalMagic)); err != nil {
			return err
		}
		s.size = int64(len(journalMagic))
		return s.f.Sync()
	}
	if string(magic[:n]) != journalMagic {
		return fmt.Errorf("runstore: %s: journal magic %q is not this build's %q; a journal in another format cannot be resumed", s.f.Name(), magic[:n], journalMagic)
	}

	// Commit point: the offset just past the last non-sample record
	// (those are the fsync'd ones).
	commit := int64(len(journalMagic))
	orphans := 0 // valid sample records past the commit point
	torn, err := s.scan(commit, func(rec Record, end int64) error {
		if rec.Type == recSample {
			orphans++
			return nil
		}
		if err := s.applyRecordLocked(rec, end); err != nil {
			return err
		}
		commit, orphans = end, 0
		return nil
	})
	if err != nil {
		return err
	}
	truncated := orphans
	if torn {
		truncated++
	}
	// Cut the journal back to the commit point. On a clean shutdown
	// this is a no-op: the journal already ends at one.
	st, err := s.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() != commit {
		if err := s.f.Truncate(commit); err != nil {
			return err
		}
	}
	s.size = commit
	if truncated > 0 {
		s.opts.Metrics.RuntimeCounter(MetRecordsTruncated).Add(int64(truncated))
	}
	return nil
}

// scan streams the journal's records from byte offset from (a record
// boundary) into apply, with each record's end offset, and reports
// whether it stopped at a torn or corrupt frame rather than a clean
// end. Errors are reserved for I/O failures and apply rejections — a
// bad frame is data loss, not an error, because the tail of a crashed
// journal is expected to be torn.
func (s *Store) scan(from int64, apply func(rec Record, end int64) error) (bool, error) {
	r := bufio.NewReader(io.NewSectionReader(s.f, from, math.MaxInt64-from))
	off := from
	var head [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return err != io.EOF, nil // a clean end, or a torn header
		}
		n := binary.LittleEndian.Uint32(head[0:4])
		sum := binary.LittleEndian.Uint32(head[4:8])
		if n > maxPayload {
			return true, nil // corrupt length
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return true, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return true, nil // corrupt payload
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return true, nil // CRC fine but undecodable: treat as torn
		}
		off += frameHeader + int64(n)
		if err := apply(rec, off); err != nil {
			return false, err
		}
	}
}

// applyRecordLocked folds one committed record, which ends at byte
// offset end, into the in-memory index. Callers hold s.mu.
func (s *Store) applyRecordLocked(rec Record, end int64) error {
	switch rec.Type {
	case recPhaseBegin:
		if s.phases[rec.Key] != nil {
			return fmt.Errorf("runstore: phase %q begun twice", rec.Key)
		}
		ph := &phaseState{id: len(s.byID), key: rec.Key, name: rec.Name, fingerprint: rec.Fingerprint, start: end}
		s.phases[rec.Key] = ph
		s.byID = append(s.byID, ph)
	case recCheckpoint:
		ph, err := s.phaseByIDLocked(rec.Phase)
		if err != nil {
			return err
		}
		if rec.Checkpoint.Seq != len(ph.checkpoints) {
			return fmt.Errorf("runstore: phase %q checkpoint %d out of order (have %d)",
				ph.key, rec.Checkpoint.Seq, len(ph.checkpoints))
		}
		ph.checkpoints = append(ph.checkpoints, rec.Checkpoint)
	case recPhaseDone:
		ph, err := s.phaseByIDLocked(rec.Phase)
		if err != nil {
			return err
		}
		ph.done = true
	default:
		return fmt.Errorf("runstore: unexpected record type %d in index", rec.Type)
	}
	return nil
}

func (s *Store) phaseByIDLocked(id int) (*phaseState, error) {
	if id < 0 || id >= len(s.byID) {
		return nil, fmt.Errorf("runstore: record references unknown phase %d", id)
	}
	return s.byID[id], nil
}

// append frames and writes one record, honoring the crash hook and the
// durability discipline (fsync on every non-sample record). Callers
// hold s.mu.
func (s *Store) appendLocked(rec Record) error {
	if s.closed {
		return errors.New("runstore: store is closed")
	}
	if s.severed {
		return ErrSevered
	}
	fr := frame(encodeRecord(rec))
	//geolint:allow-block wirecheck deliberate torn-frame injection: the crash hook discards write and sync errors on purpose to model kill -9 mid-record
	if s.opts.Crash != nil && s.opts.Crash(s.written) {
		// Sever mid-record: flush a torn half-frame, exactly the state a
		// kill -9 between write and fsync leaves behind.
		_, _ = s.f.Write(fr[:len(fr)/2])
		_ = s.f.Sync()
		s.severed = true
		return ErrSevered
	}
	if _, err := s.f.Write(fr); err != nil {
		return err
	}
	s.written++
	s.size += int64(len(fr))
	s.opts.Metrics.RuntimeCounter(MetRecordsWritten).Add(1)
	if rec.Type == recSample {
		return nil
	}
	return s.syncLocked()
}

// syncLocked fsyncs the journal, timing the call on the registry's
// clock seam (never the wall clock directly).
func (s *Store) syncLocked() error {
	reg := s.opts.Metrics
	start := reg.Now()
	err := s.f.Sync()
	if reg != nil {
		reg.RuntimeHistogram(MetFsyncLatency, 0, 50000, 25).Observe(float64(reg.Now().Sub(start).Microseconds()))
	}
	return err
}

// Close fsyncs and closes the journal. Further writes error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if !s.severed {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Phases lists the journaled phases in begin order.
func (s *Store) Phases() []PhaseInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PhaseInfo, 0, len(s.byID))
	for _, ph := range s.byID {
		out = append(out, PhaseInfo{Key: ph.key, Name: ph.name, Done: ph.done, Shards: len(ph.checkpoints), Samples: ph.samples()})
	}
	return out
}

// Phase reports the journaled state of one phase key.
func (s *Store) Phase(key string) (PhaseInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ph := s.phases[key]
	if ph == nil {
		return PhaseInfo{}, false
	}
	return PhaseInfo{Key: ph.key, Name: ph.name, Done: ph.done, Shards: len(ph.checkpoints), Samples: ph.samples()}, true
}

// beginPhase journals a phase announcement and indexes it.
func (s *Store) beginPhase(key, name string, fingerprint uint64) (*phaseState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phases[key] != nil {
		return nil, fmt.Errorf("runstore: phase %q begun twice", key)
	}
	ph := &phaseState{id: len(s.byID), key: key, name: name, fingerprint: fingerprint}
	if err := s.appendLocked(Record{Type: recPhaseBegin, Key: key, Name: name, Fingerprint: fingerprint}); err != nil {
		return nil, err
	}
	ph.start = s.size
	s.phases[key] = ph
	s.byID = append(s.byID, ph)
	return ph, nil
}

// journalSample appends one sample record (no fsync; the shard's
// checkpoint is the commit point).
func (s *Store) journalSample(ph *phaseState, sample scanner.Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(Record{Type: recSample, Phase: ph.id, Sample: sample})
}

// journalCheckpoint appends and fsyncs one shard checkpoint,
// committing the samples before it.
func (s *Store) journalCheckpoint(ph *phaseState, cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cp.Seq != len(ph.checkpoints) {
		return fmt.Errorf("runstore: phase %q checkpoint %d out of order (have %d)", ph.key, cp.Seq, len(ph.checkpoints))
	}
	if err := s.appendLocked(Record{Type: recCheckpoint, Phase: ph.id, Checkpoint: cp}); err != nil {
		return err
	}
	ph.checkpoints = append(ph.checkpoints, cp)
	return nil
}

// completePhase journals the phase-done marker.
func (s *Store) completePhase(ph *phaseState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(Record{Type: recPhaseDone, Phase: ph.id}); err != nil {
		return err
	}
	ph.done = true
	return nil
}
