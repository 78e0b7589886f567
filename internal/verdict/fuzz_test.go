package verdict

import (
	"bytes"
	"testing"

	"geoblock/internal/geo"
)

// FuzzDecodeSnapshot hammers the snapshot decoder with arbitrary
// bytes: it must never panic, and any input it accepts must re-encode
// canonically — decoding the re-encoding yields identical bytes, an
// identical ETag and an identical verdict matrix (the codec is closed
// under roundtripping), whether or not the input's varints were
// minimal.
func FuzzDecodeSnapshot(f *testing.F) {
	seeds := []Source{
		testSource(),
		{Version: 1, Seed: 2},
		{Version: 9, Seed: 3, Domains: []string{"a.example", "b.example"}, Countries: []geo.CountryCode{"CN", "US"}},
		bigSource(64, 8, 3),
	}
	for _, src := range seeds {
		s, err := Compile(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.Encode())
	}
	good, _ := Compile(testSource())
	enc := good.Encode()
	f.Add(enc[:len(enc)/2])
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	f.Add([]byte(wireMagic))
	f.Add([]byte{})
	f.Add(overlong(f, enc, 0, 1))

	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := Decode(payload)
		if err != nil {
			return
		}
		re := s.Encode()
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted snapshot does not decode: %v", err)
		}
		if !bytes.Equal(s2.Encode(), re) {
			t.Fatalf("roundtrip not closed: second encoding differs")
		}
		if s2.ETag() != s.ETag() || s2.Version() != s.Version() || s2.Blocked() != s.Blocked() {
			t.Fatalf("snapshot identity drifted across roundtrip")
		}
		for _, d := range s.Domains() {
			for _, cc := range s.Countries() {
				a, aok := s.Lookup(d, cc)
				b, bok := s2.Lookup(d, cc)
				if a != b || aok != bok {
					t.Fatalf("Lookup(%q, %q) differs across roundtrip", d, cc)
				}
			}
		}
	})
}
