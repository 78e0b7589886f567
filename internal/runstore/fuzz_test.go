package runstore

import (
	"reflect"
	"testing"

	"geoblock/internal/scanner"
)

// FuzzDecodeRecord hammers the strict decoder with arbitrary payloads:
// it must never panic, and any payload it accepts must re-encode into
// a payload that decodes to the same record (the codec is closed under
// roundtripping, even when the input used a non-minimal varint form).
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(encodeRecord(rec))
	}
	// Torn and corrupt shapes recovery actually encounters.
	f.Add([]byte{})
	f.Add([]byte{recSample})
	f.Add([]byte{recPhaseBegin, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	half := encodeRecord(sampleRecords()[1])
	f.Add(half[:len(half)/2])
	flipped := append([]byte(nil), half...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	for _, bad := range badMetrics() {
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		re := encodeRecord(rec)
		rec2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("roundtrip not closed:\nfirst  %+v\nsecond %+v", rec, rec2)
		}
	})
}

// FuzzDecodeShardFrames hammers the fabric's completion decoder the
// same way: it must never panic, and any payload it accepts must
// re-encode into one that decodes to the same shard. The seeds include
// the four bad completions a faulty worker could send for a 16-sample
// unit — a foreign domain index, a foreign country index, a short
// payload, and loss reason 200 (which the decoder itself rejects) —
// and the two checkpoints of badMetrics.
func FuzzDecodeShardFrames(f *testing.F) {
	samples, cp := wireShard(16)
	f.Add(EncodeShardFrames(samples, cp))
	f.Add(EncodeShardFrames(nil, Checkpoint{Seq: 0, Country: "SY", Tasks: 4, Lost: scanner.OutageDark}))
	bad := func(edit func([]scanner.Sample, *Checkpoint) []scanner.Sample) []byte {
		s, c := wireShard(16)
		s = edit(s, &c)
		c.Samples = len(s)
		return EncodeShardFrames(s, c)
	}
	f.Add(bad(func(s []scanner.Sample, _ *Checkpoint) []scanner.Sample { s[0].Domain = 1 << 30; return s }))
	f.Add(bad(func(s []scanner.Sample, _ *Checkpoint) []scanner.Sample { s[0].Country = 999; return s }))
	f.Add(bad(func(s []scanner.Sample, _ *Checkpoint) []scanner.Sample { return s[:1] }))
	f.Add(bad(func(s []scanner.Sample, c *Checkpoint) []scanner.Sample { c.Lost = 200; return s }))
	for _, cp := range badMetrics() {
		f.Add(frame(cp))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		samples, cp, err := DecodeShardFrames(b)
		if err != nil {
			return
		}
		samples2, cp2, err := DecodeShardFrames(EncodeShardFrames(samples, cp))
		if err != nil {
			t.Fatalf("re-encoding of accepted payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(samples, samples2) || !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("roundtrip not closed:\nfirst  %+v %+v\nsecond %+v %+v", samples, cp, samples2, cp2)
		}
	})
}
