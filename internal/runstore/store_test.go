package runstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
)

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// journalShard writes n samples and then the committing checkpoint for
// shard seq.
func journalShard(t *testing.T, st *Store, ph *phaseState, seq, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		s := scanner.Sample{Domain: int32(i), Country: int16(seq), Seed: uint64(seq*1000 + i)}
		if err := st.journalSample(ph, s); err != nil {
			t.Fatal(err)
		}
	}
	cp := Checkpoint{Seq: seq, Country: "US", Tasks: n, Samples: n}
	if err := st.journalCheckpoint(ph, cp); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFreshAndReopenEmpty: a new directory starts an empty journal,
// one file holding exactly the magic; reopening it finds no phases.
func TestOpenFreshAndReopenEmpty(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	if got := st.Phases(); len(got) != 0 {
		t.Fatalf("fresh journal has %d phases", len(got))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != journalName {
		t.Fatalf("fresh run directory holds %v, want only %s", ents, journalName)
	}
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != journalMagic {
		t.Fatalf("fresh journal = %q, want the magic %q", b, journalMagic)
	}
	st2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	if got := st2.Phases(); len(got) != 0 {
		t.Fatalf("reopened empty journal has %d phases", len(got))
	}
}

// TestOpenTornMagic: a journal file whose bytes are a proper prefix of
// the magic, empty included, is what a crash while the journal was
// being created leaves: a tail torn at offset 0. It opens as an empty
// journal that takes appends and survives a reopen. Any other short
// content is not a journal of this format and fails Open unchanged.
func TestOpenTornMagic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		content string
		ok      bool
	}{
		{"empty", "", true},
		{"magic prefix", journalMagic[:4], true},
		{"not a prefix", journalMagic[:3] + "X", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, journalName)
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, Options{})
			if !tc.ok {
				if err == nil {
					st.Close()
					t.Fatalf("a journal holding %q opened", tc.content)
				}
				if !strings.Contains(err.Error(), "journal magic") {
					t.Fatalf("Open = %v, want a bad-magic error", err)
				}
				if b, err := os.ReadFile(path); err != nil || string(b) != tc.content {
					t.Fatalf("Open changed the journal to %q (err %v)", b, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Phases(); len(got) != 0 {
				t.Fatalf("torn-magic journal has %d phases", len(got))
			}
			ph, err := st.beginPhase("p", "phase", 42)
			if err != nil {
				t.Fatal(err)
			}
			journalShard(t, st, ph, 0, 2)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := mustOpen(t, dir, Options{})
			defer st2.Close()
			if info, _ := st2.Phase("p"); info.Shards != 1 || info.Samples != 2 {
				t.Fatalf("reopened phase = %+v, want 1 shard / 2 samples", info)
			}
		})
	}
}

// TestRecoverTornTail: garbage appended past the last fsync'd record
// — the torn frame a kill -9 leaves — is truncated on reopen, counted
// in the truncation metric, and the index is intact.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	ph, err := st.beginPhase("p", "phase", 42)
	if err != nil {
		t.Fatal(err)
	}
	journalShard(t, st, ph, 0, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	committed, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Half a frame of a would-be record: length says 100, payload absent.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{100, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := telemetry.New()
	st2 := mustOpen(t, dir, Options{Metrics: reg})
	defer st2.Close()
	info, ok := st2.Phase("p")
	if !ok || info.Shards != 1 || info.Samples != 5 {
		t.Fatalf("recovered phase = %+v, want 1 shard / 5 samples", info)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != committed.Size() {
		t.Fatalf("tail not truncated: %d bytes, want %d", after.Size(), committed.Size())
	}
	if got := reg.RuntimeCounter(MetRecordsTruncated).Value(); got != 1 {
		t.Fatalf("truncated counter = %d, want 1", got)
	}
}

// TestRecoverOrphanSamples: samples written after the last checkpoint
// belong to a shard that never committed; recovery drops them so the
// shard reruns cleanly on resume.
func TestRecoverOrphanSamples(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	ph, err := st.beginPhase("p", "phase", 42)
	if err != nil {
		t.Fatal(err)
	}
	journalShard(t, st, ph, 0, 3)
	// Orphans: a shard's samples with no committing checkpoint.
	for i := 0; i < 4; i++ {
		if err := st.journalSample(ph, scanner.Sample{Domain: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	st2 := mustOpen(t, dir, Options{Metrics: reg})
	info, _ := st2.Phase("p")
	if info.Shards != 1 || info.Samples != 3 {
		t.Fatalf("recovered phase = %+v, want 1 shard / 3 samples", info)
	}
	if got := reg.RuntimeCounter(MetRecordsTruncated).Value(); got != 4 {
		t.Fatalf("truncated counter = %d, want 4 orphans", got)
	}
	// The journal must physically end at the commit point: appending a
	// new shard and replaying must yield exactly 3+2 samples.
	ph2, err := st2.phaseByKey("p")
	if err != nil {
		t.Fatal(err)
	}
	journalShard(t, st2, ph2, 1, 2)
	var col scanner.Collect
	lost, err := st2.replayPhase(ph2, &col, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 2 || len(col.Samples) != 5 {
		t.Fatalf("replay after orphan truncation: %d shards / %d samples, want 2 / 5", len(lost), len(col.Samples))
	}
	st2.Close()
}

// phaseByKey looks up the in-memory phase state for tests.
func (s *Store) phaseByKey(key string) (*phaseState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ph := s.phases[key]
	if ph == nil {
		return nil, os.ErrNotExist
	}
	return ph, nil
}

// TestRecoverDropsLaterSegments: a corrupt frame mid-file cuts the
// journal back to the last commit before it, dropping every later
// record, valid or not — the disk's story ends at the last believable
// commit, and resume refetches the rest.
func TestRecoverDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	ph, err := st.beginPhase("p", "phase", 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	var ends []int64 // the journal's length after each shard's checkpoint
	for seq := 0; seq < 6; seq++ {
		journalShard(t, st, ph, seq, 4)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside shard 3's samples.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[(ends[2]+ends[3])/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	st2 := mustOpen(t, dir, Options{Metrics: reg})
	defer st2.Close()
	if info, _ := st2.Phase("p"); info.Shards != 3 || info.Samples != 12 {
		t.Fatalf("recovered %+v, want the 3 shards before the corrupt frame", info)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != ends[2] {
		t.Fatalf("journal cut to %d bytes, want shard 2's commit point at %d", fi.Size(), ends[2])
	}
	// The corrupt frame and the valid orphan samples before it; the
	// records after the corrupt frame are never parsed.
	if got := reg.RuntimeCounter(MetRecordsTruncated).Value(); got < 1 || got > 4 {
		t.Fatalf("truncated counter = %d, want the corrupt frame and at most 3 orphans before it", got)
	}
}

// TestCrashHookSevers: the chaos hook tears the record it fires on and
// latches the store into ErrSevered, and recovery after the sever sees
// only the committed prefix.
func TestCrashHookSevers(t *testing.T) {
	dir := t.TempDir()
	var calls int64
	st := mustOpen(t, dir, Options{Crash: func(written int64) bool {
		calls++
		return written >= 9 // phase-begin + 5 samples + checkpoint + 2 samples
	}})
	ph, err := st.beginPhase("p", "phase", 42)
	if err != nil {
		t.Fatal(err)
	}
	journalShard(t, st, ph, 0, 5)
	var severErr error
	for i := 0; i < 10 && severErr == nil; i++ {
		severErr = st.journalSample(ph, scanner.Sample{Domain: int32(i)})
	}
	if severErr != ErrSevered {
		t.Fatalf("sever error = %v, want ErrSevered", severErr)
	}
	if err := st.journalCheckpoint(ph, Checkpoint{Seq: 1}); err != ErrSevered {
		t.Fatalf("append after sever = %v, want ErrSevered", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	st2 := mustOpen(t, dir, Options{Metrics: reg})
	defer st2.Close()
	info, _ := st2.Phase("p")
	if info.Shards != 1 || info.Samples != 5 {
		t.Fatalf("post-sever recovery = %+v, want 1 shard / 5 samples", info)
	}
	// 2 whole orphan samples plus the torn half-record.
	if got := reg.RuntimeCounter(MetRecordsTruncated).Value(); got != 3 {
		t.Fatalf("truncated counter = %d, want 3", got)
	}
}

// TestCheckpointOrdering: out-of-order checkpoint sequence numbers are
// a program bug, caught at write time and at recovery time.
func TestCheckpointOrdering(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	defer st.Close()
	ph, err := st.beginPhase("p", "phase", 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.journalCheckpoint(ph, Checkpoint{Seq: 1}); err == nil {
		t.Fatal("checkpoint seq 1 accepted before seq 0")
	}
	if err := st.journalCheckpoint(ph, Checkpoint{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.beginPhase("p", "phase", 42); err == nil {
		t.Fatal("duplicate phase begin accepted")
	}
}
