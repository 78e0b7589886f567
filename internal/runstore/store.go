// Package runstore is the persistence layer: an append-only,
// crash-safe journal of scanner samples plus a checkpoint index of
// completed work, so a long study interrupted at any byte resumes by
// replaying what it has instead of refetching it.
//
// Layout: a run directory holds numbered segment files (seg-00000000.log,
// rotated once a segment passes Options.SegmentBytes at a commit
// boundary) and a MANIFEST listing them in order, rewritten atomically
// on every rotation. Each segment opens with an 8-byte magic and then
// carries length-prefixed, CRC-32C-checked records (see record.go).
//
// Durability discipline: sample records are buffered only by the OS —
// the store issues no fsync for them — while every checkpoint, phase,
// outage, and coverage record is fsync'd before the append returns.
// A checkpoint is therefore the commit point for the samples before
// it: after a crash, recovery truncates the journal back to the last
// fsync'd non-sample record, dropping the torn tail record (if any)
// and any orphan samples of a shard that never checkpointed. Those
// shards simply run again on resume. Recovery never errors on a torn
// tail; corruption earlier than the tail means the disk lied about an
// fsync, and that does error.
package runstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
)

// ErrSevered is returned by journal writes after the fault-injection
// crash hook fired: the store has written a deliberately torn record
// and refuses all further appends, exactly as a killed process would.
var ErrSevered = errors.New("runstore: store severed by crash hook")

// manifestName is the journal's segment list file.
const manifestName = "MANIFEST"

// manifestHeader is the first line of a manifest.
const manifestHeader = "geoblock-runstore v1"

// DefaultSegmentBytes is the rotation threshold when Options leaves it
// zero.
const DefaultSegmentBytes = 4 << 20

// Options tunes a Store.
type Options struct {
	// SegmentBytes rotates the journal to a fresh segment once the
	// current one passes this size. Rotation happens only at commit
	// boundaries (after an fsync'd record), so a segment may overshoot
	// by one shard's samples. Zero takes DefaultSegmentBytes.
	SegmentBytes int64
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

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// phaseState is the in-memory index of one journaled phase.
type phaseState struct {
	id          int
	key         string
	name        string
	fingerprint uint64
	done        bool
	checkpoints []Checkpoint
	// start is where the phase's records begin, just past its begin
	// record: where replay starts reading.
	start position
}

// position is a place in the journal: a segment's index in
// Store.segments and a byte offset into it.
type position struct {
	seg int
	off int64
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
	dir  string
	opts Options

	mu       sync.Mutex
	phases   map[string]*phaseState
	byID     []*phaseState
	segments []string // active segment file names, in order
	seg      *os.File // tail segment, open for append
	segBytes int64
	written  int64 // records appended by this process (crash-hook clock)
	severed  bool
	closed   bool
}

// Open opens (or creates) the journal in dir and recovers its index:
// every segment is scanned, records validate against their CRCs, and
// the journal is truncated back to its commit point — the position
// after the last fsync'd non-sample record — dropping a torn tail and
// any orphan samples beyond it. A fresh directory starts an empty
// journal.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), phases: map[string]*phaseState{}}
	// Nothing else holds s yet, so the lock is uncontended; taking it
	// keeps recovery inside the mu discipline every other method obeys.
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := s.createSegmentLocked(0); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := s.recoverFromLocked(segs); err != nil {
		return nil, err
	}
	return s, nil
}

// listSegments returns the segment file names in journal order: the
// manifest's list when one exists, otherwise (first open ever crashed
// before writing it) the directory's seg-*.log files sorted by name.
func (s *Store) listSegments() ([]string, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err == nil {
		lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
		if len(lines) == 0 || lines[0] != manifestHeader {
			return nil, fmt.Errorf("runstore: %s: bad manifest header", s.dir)
		}
		var segs []string
		for _, ln := range lines[1:] {
			name, ok := strings.CutPrefix(ln, "segment ")
			if !ok {
				return nil, fmt.Errorf("runstore: %s: bad manifest line %q", s.dir, ln)
			}
			segs = append(segs, name)
		}
		return segs, nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	segs, err := filepath.Glob(filepath.Join(s.dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(segs)
	for i, p := range segs {
		segs[i] = filepath.Base(p)
	}
	return segs, nil
}

// segName renders the i-th segment file name.
func segName(i int) string { return fmt.Sprintf("seg-%08d.log", i) }

// createSegmentLocked starts segment index i as the new tail and
// rewrites the manifest to match. Callers hold s.mu.
func (s *Store) createSegmentLocked(i int) error {
	name := segName(i)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	s.seg = f
	s.segBytes = int64(len(segMagic))
	s.segments = append(s.segments, name)
	return s.writeManifestLocked()
}

// writeManifestLocked atomically rewrites the manifest from
// s.segments. The slice is ordered by construction — never a map
// iteration — so the bytes are deterministic.
func (s *Store) writeManifestLocked() error {
	var b strings.Builder
	b.WriteString(manifestHeader)
	b.WriteByte('\n')
	for _, name := range s.segments {
		b.WriteString("segment ")
		b.WriteString(name)
		b.WriteByte('\n')
	}
	return telemetry.WriteFileAtomic(filepath.Join(s.dir, manifestName), []byte(b.String()))
}

// recoverFromLocked rebuilds the index from the listed segments and
// truncates the journal to its commit point. Callers hold s.mu.
func (s *Store) recoverFromLocked(segs []string) error {
	// Commit point: segment index + byte offset just past the last
	// non-sample record (those are the fsync'd ones).
	commitSeg, commitOff := 0, int64(len(segMagic))
	orphans := 0 // valid sample records past the commit point
	torn := false

	for i, name := range segs {
		off, err := s.scanSegment(name, int64(len(segMagic)), func(rec Record, end int64) error {
			if rec.Type == recSample {
				orphans++
				return nil
			}
			if err := s.applyRecordLocked(rec, position{i, end}); err != nil {
				return err
			}
			commitSeg, commitOff = i, end
			orphans = 0
			return nil
		})
		if err != nil {
			return err
		}
		if off >= 0 {
			// Torn or corrupt frame at off: everything after the commit
			// point goes, including any later segments.
			torn = true
			break
		}
	}

	truncated := orphans
	if torn {
		truncated++
	}
	// Drop segments past the commit segment and cut the commit segment
	// back to the commit offset. On a clean shutdown this is a no-op
	// (the journal already ends at a commit point).
	for _, name := range segs[commitSeg+1:] {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	s.segments = append([]string(nil), segs[:commitSeg+1]...)
	tail := filepath.Join(s.dir, s.segments[commitSeg])
	st, err := os.Stat(tail)
	if err != nil {
		return err
	}
	if st.Size() != commitOff {
		if err := os.Truncate(tail, commitOff); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.seg = f
	s.segBytes = commitOff
	if truncated > 0 {
		s.opts.Metrics.RuntimeCounter(MetRecordsTruncated).Add(int64(truncated))
	}
	return s.writeManifestLocked()
}

// scanSegment streams name's records from byte offset from (a record
// boundary; len(segMagic) for the first record) into apply, with each
// record's end offset, and reports where the valid prefix ends: -1
// when the segment parsed cleanly to EOF, otherwise the offset of the
// first torn or corrupt frame. Errors are reserved for I/O failures, a
// bad magic, and apply rejections — a bad frame is data loss, not an
// error, because the tail of a crashed journal is expected to be torn.
func (s *Store) scanSegment(name string, from int64, apply func(rec Record, end int64) error) (int64, error) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		// A listed-but-unopenable segment is not a torn tail: the
		// manifest promised committed data this directory no longer
		// serves. Name the segment — "file not found" alone reads like a
		// fresh journal when it is actually data loss.
		return -1, fmt.Errorf("runstore: segment %s is listed in the manifest but unreadable (a missing mid-sequence segment is data loss, not a crash artifact): %w", name, err)
	}
	defer f.Close()
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return -1, fmt.Errorf("runstore: %s: bad segment magic", name)
	}
	if string(magic) != segMagic {
		return -1, fmt.Errorf("runstore: %s: segment format %q is not this build's %q; a journal in another format cannot be resumed", name, magic, segMagic)
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return -1, err
	}
	r := bufio.NewReader(f)
	off := from
	var head [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			if err == io.EOF {
				return -1, nil // clean end
			}
			return off, nil // torn header
		}
		n := binary.LittleEndian.Uint32(head[0:4])
		sum := binary.LittleEndian.Uint32(head[4:8])
		if n > maxPayload {
			return off, nil // corrupt length
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, nil // corrupt payload
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return off, nil // CRC fine but undecodable: treat as torn
		}
		off += frameHeader + int64(n)
		if err := apply(rec, off); err != nil {
			return -1, err
		}
	}
}

// applyRecordLocked folds one committed record, which ends at end,
// into the in-memory index. Callers hold s.mu.
func (s *Store) applyRecordLocked(rec Record, end position) error {
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
	case recOutage, recCoverage:
		// Accounting records are audit data: resume recomputes outages
		// and coverage from the checkpoints' loss reasons, so recovery
		// only validates the phase reference.
		if _, err := s.phaseByIDLocked(rec.Phase); err != nil {
			return err
		}
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
// durability discipline (fsync on every non-sample record), rotating
// segments at commit boundaries. Callers hold s.mu.
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
		_, _ = s.seg.Write(fr[:len(fr)/2])
		_ = s.seg.Sync()
		s.severed = true
		return ErrSevered
	}
	if _, err := s.seg.Write(fr); err != nil {
		return err
	}
	s.written++
	s.segBytes += int64(len(fr))
	s.opts.Metrics.RuntimeCounter(MetRecordsWritten).Add(1)
	if rec.Type == recSample {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	if s.segBytes >= s.opts.SegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

// syncLocked fsyncs the tail segment, timing the call on the
// registry's clock seam (never the wall clock directly).
func (s *Store) syncLocked() error {
	reg := s.opts.Metrics
	start := reg.Now()
	err := s.seg.Sync()
	if reg != nil {
		reg.RuntimeHistogram(MetFsyncLatency, 0, 50000, 25).Observe(float64(reg.Now().Sub(start).Microseconds()))
	}
	return err
}

// rotateLocked closes the tail segment and starts the next one.
func (s *Store) rotateLocked() error {
	if err := s.seg.Close(); err != nil {
		return err
	}
	s.opts.Metrics.RuntimeCounter(MetSegmentRotations).Add(1)
	return s.createSegmentLocked(len(s.segments))
}

// Close fsyncs and closes the tail segment. Further writes error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.seg == nil {
		return nil
	}
	var err error
	if !s.severed {
		err = s.seg.Sync()
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the journal directory.
func (s *Store) Dir() string { return s.dir }

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
	// Just past the begin record, or the head of the segment a rotation
	// after it started.
	ph.start = position{len(s.segments) - 1, s.segBytes}
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

// journalOutage appends and fsyncs one outage record.
func (s *Store) journalOutage(ph *phaseState, o scanner.Outage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(Record{Type: recOutage, Phase: ph.id, Outage: o})
}

// journalCoverage appends and fsyncs the coverage summary.
func (s *Store) journalCoverage(ph *phaseState, c scanner.Coverage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(Record{Type: recCoverage, Phase: ph.id, Coverage: c})
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
