package runstore

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"geoblock/internal/scanner"
)

// wireShard builds a representative shard payload for the codec tests.
func wireShard(n int) ([]scanner.Sample, Checkpoint) {
	samples := make([]scanner.Sample, n)
	for i := range samples {
		samples[i] = scanner.Sample{Domain: int32(i), Country: 7, Seed: uint64(1000 + i)}
	}
	cp := Checkpoint{Seq: 3, Country: "IR", Tasks: n, Samples: n, Metrics: fullMetrics(), Trace: []byte(`[{"name":"unit"}]`)}
	return samples, cp
}

// TestShardFramesRoundtrip: encode → decode is the identity, and the
// bytes on the wire are exactly the frames the journal would hold, so
// a coordinator journaling a decoded shard writes the same content a
// local scan would.
func TestShardFramesRoundtrip(t *testing.T) {
	samples, cp := wireShard(5)
	b := EncodeShardFrames(samples, cp)

	gotSamples, gotCP, err := DecodeShardFrames(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSamples, samples) {
		t.Fatalf("samples round-trip mismatch:\n got %+v\nwant %+v", gotSamples, samples)
	}
	if !reflect.DeepEqual(gotCP, cp) {
		t.Fatalf("checkpoint round-trip mismatch:\n got %+v\nwant %+v", gotCP, cp)
	}

	// Byte-level equivalence with the journal's own framing.
	var want []byte
	for i := range samples {
		want = append(want, frame(encodeRecord(Record{Type: recSample, Sample: samples[i]}))...)
	}
	want = append(want, frame(encodeRecord(Record{Type: recCheckpoint, Checkpoint: cp}))...)
	if !reflect.DeepEqual(b, want) {
		t.Fatal("wire bytes differ from journal framing of the same records")
	}
}

// TestShardFramesEmptyShard: zero samples plus a checkpoint is a legal
// shard (every task lost to an outage) and must round-trip.
func TestShardFramesEmptyShard(t *testing.T) {
	cp := Checkpoint{Seq: 0, Country: "SY", Tasks: 4, Samples: 0, Lost: scanner.OutageDark}
	b := EncodeShardFrames(nil, cp)
	gotSamples, gotCP, err := DecodeShardFrames(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSamples) != 0 {
		t.Fatalf("empty shard decoded %d samples", len(gotSamples))
	}
	if !reflect.DeepEqual(gotCP, cp) {
		t.Fatalf("checkpoint = %+v, want %+v", gotCP, cp)
	}
}

// TestShardFramesStrictness: every malformed payload class the decoder
// promises to reject — a half-received completion must never be
// journaled.
func TestShardFramesStrictness(t *testing.T) {
	samples, cp := wireShard(3)
	good := EncodeShardFrames(samples, cp)

	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"empty payload", nil, "no checkpoint"},
		{"torn frame header", good[:frameHeader-2], "torn frame header"},
		{"torn payload", good[:len(good)-3], "overruns payload"},
		{"trailing bytes", append(append([]byte(nil), good...), good[:frameHeader+4]...), "trailing bytes"},
		{"samples but no checkpoint", good[:samplesOnlyLen(t, samples)], "no checkpoint"},
		{"crc mismatch", flipByte(good, frameHeader+1), "CRC mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeShardFrames(tc.b)
			if err == nil {
				t.Fatal("malformed payload decoded cleanly")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestShardFramesLengthOverrun: a frame length beyond maxPayload is
// rejected before any allocation is attempted.
func TestShardFramesLengthOverrun(t *testing.T) {
	b := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(b[0:4], maxPayload+1)
	if _, _, err := DecodeShardFrames(b); err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Fatalf("oversized frame length: err = %v", err)
	}
}

// TestShardFramesCountMismatch: a checkpoint whose sample count
// disagrees with the payload is rejected — the count is the shard's
// own integrity claim.
func TestShardFramesCountMismatch(t *testing.T) {
	samples, cp := wireShard(3)
	cp.Samples = 2
	b := EncodeShardFrames(samples, cp)
	if _, _, err := DecodeShardFrames(b); err == nil || !strings.Contains(err.Error(), "claims 2 samples, payload holds 3") {
		t.Fatalf("count mismatch: err = %v", err)
	}
}

// samplesOnlyLen returns the byte length of the sample frames alone —
// the prefix of a shard payload whose checkpoint never arrived.
func samplesOnlyLen(t *testing.T, samples []scanner.Sample) int {
	t.Helper()
	n := 0
	for i := range samples {
		n += len(frame(encodeRecord(Record{Type: recSample, Sample: samples[i]})))
	}
	return n
}

// flipByte returns a copy of b with one byte corrupted.
func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}
