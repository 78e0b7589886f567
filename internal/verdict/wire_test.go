package verdict

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"geoblock/internal/geo"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, src := range []Source{
		testSource(),
		{Version: 1, Seed: 2}, // empty universe
		{Version: 3, Seed: 4, Domains: []string{"only.example"}, Countries: []geo.CountryCode{"US"}},
		bigSource(300, 20, 5),
	} {
		orig, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		enc := orig.Encode()
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("re-encode is not byte-identical")
		}
		if dec.ETag() != orig.ETag() {
			t.Fatalf("ETag drifted across the wire: %s vs %s", dec.ETag(), orig.ETag())
		}
		if dec.Version() != orig.Version() || dec.Seed() != orig.Seed() || dec.Blocked() != orig.Blocked() {
			t.Fatalf("scalar fields drifted across the wire")
		}
		for _, d := range orig.Domains() {
			for _, cc := range orig.Countries() {
				a, aok := orig.Lookup(d, cc)
				b, bok := dec.Lookup(d, cc)
				if a != b || aok != bok {
					t.Fatalf("Lookup(%q, %q) differs after round trip: %+v vs %+v", d, cc, a, b)
				}
			}
		}
	}
}

// TestDecodeRejectsCorruption walks the strict-decoder error surface:
// every class of damage must produce an error, never a panic or a
// silently wrong snapshot.
func TestDecodeRejectsCorruption(t *testing.T) {
	s, err := Compile(testSource())
	if err != nil {
		t.Fatal(err)
	}
	good := s.Encode()

	reframe := func(payload []byte) []byte {
		return frame(payload)
	}
	// Offsets of each frame in the good encoding.
	var frames [][2]int // [start, end) including header
	for off := len(wireMagic); off < len(good); {
		n := int(binary.LittleEndian.Uint32(good[off : off+4]))
		frames = append(frames, [2]int{off, off + frameHeader + n})
		off += frameHeader + n
	}
	if len(frames) != 2+len(s.Countries()) {
		t.Fatalf("expected %d frames, found %d", 2+len(s.Countries()), len(frames))
	}

	cases := map[string][]byte{
		"empty":          {},
		"short magic":    good[:4],
		"bad magic":      append([]byte("XXVERD01"), good[8:]...),
		"magic only":     good[:len(wireMagic)],
		"torn frame":     good[:len(wireMagic)+3],
		"truncated tail": good[:len(good)-1],
		"trailing bytes": append(append([]byte{}, good...), 0),
	}

	// Flip one payload byte in the header frame: CRC must catch it.
	flip := append([]byte{}, good...)
	flip[frames[0][0]+frameHeader+2] ^= 0x40
	cases["payload bit flip"] = flip

	// Frame length overruns the buffer.
	overrun := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(overrun[frames[0][0]:], 1<<30)
	cases["frame length overrun"] = overrun

	// Surgically rebuild streams with structural damage; each frame's
	// payload is re-framed so the CRC is valid and only the structure
	// is wrong.
	payload := func(i int) []byte {
		return good[frames[i][0]+frameHeader : frames[i][1]]
	}
	hdr, row0, trailer := payload(0), payload(1), payload(len(frames)-1)

	join := func(ps ...[]byte) []byte {
		out := []byte(wireMagic)
		for _, p := range ps {
			out = append(out, reframe(p)...)
		}
		return out
	}
	cases["row before header"] = join(row0, hdr, payload(2), payload(3), payload(4), trailer)
	cases["duplicate header"] = join(hdr, hdr, payload(1), payload(2), payload(3), payload(4), trailer)
	cases["missing row"] = join(hdr, payload(1), payload(2), payload(3), trailer)
	cases["extra row"] = join(hdr, payload(1), payload(2), payload(3), payload(4), payload(4), trailer)
	cases["rows out of order"] = join(hdr, payload(2), payload(1), payload(3), payload(4), trailer)
	cases["missing trailer"] = join(hdr, payload(1), payload(2), payload(3), payload(4))
	cases["trailer before rows"] = join(hdr, trailer, payload(1), payload(2), payload(3), payload(4))
	cases["frame after trailer"] = join(hdr, payload(1), payload(2), payload(3), payload(4), trailer, trailer)
	cases["unknown record type"] = join(hdr, payload(1), payload(2), payload(3), payload(4), []byte{99, 0}, trailer)
	cases["empty record"] = join(hdr, []byte{}, payload(1), payload(2), payload(3), payload(4), trailer)

	// Trailer total disagreeing with the rows.
	badTotal := binary.AppendUvarint([]byte{recTrailer}, uint64(s.Blocked()+1))
	cases["trailer count mismatch"] = join(hdr, payload(1), payload(2), payload(3), payload(4), badTotal)

	// Record-level trailing bytes (valid CRC, extra payload).
	cases["record trailing bytes"] = join(hdr, payload(1), payload(2), payload(3), payload(4), append(append([]byte{}, trailer...), 7))

	for name, in := range cases {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func TestDecodeRejectsBadTables(t *testing.T) {
	// Hand-build headers with invalid tables.
	mk := func(build func() []byte) []byte {
		return append([]byte(wireMagic), frame(build())...)
	}
	unsortedDomains := mk(func() []byte {
		b := []byte{recHeader}
		b = binary.AppendUvarint(b, 1) // version
		b = binary.AppendUvarint(b, 1) // seed
		b = binary.AppendUvarint(b, 2) // 2 domains, out of order
		b = appendString(b, "b.example")
		b = appendString(b, "a.example")
		b = binary.AppendUvarint(b, 0)
		return b
	})
	hugeTable := mk(func() []byte {
		b := []byte{recHeader}
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, maxTableLen+1)
		return b
	})
	dupCountry := mk(func() []byte {
		b := []byte{recHeader}
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 0) // no domains
		b = binary.AppendUvarint(b, 2)
		b = appendString(b, "CN")
		b = appendString(b, "CN")
		return b
	})
	for name, in := range map[string][]byte{
		"unsorted domain table":   unsortedDomains,
		"table length over limit": hugeTable,
		"duplicate country":       dupCountry,
	} {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: Decode accepted invalid header", name)
		}
	}

	// Row-level damage over a valid 2-domain header.
	header := func() []byte {
		b := []byte{recHeader}
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 2)
		b = appendString(b, "a.example")
		b = appendString(b, "b.example")
		b = binary.AppendUvarint(b, 1)
		b = appendString(b, "CN")
		return b
	}
	row := func(build func([]byte) []byte) []byte {
		out := append([]byte(wireMagic), frame(header())...)
		b := []byte{recRow}
		b = binary.AppendUvarint(b, 0) // country 0
		return append(out, frame(build(b))...)
	}
	for name, in := range map[string][]byte{
		"row claims too many blocked": row(func(b []byte) []byte {
			return binary.AppendUvarint(b, 3)
		}),
		"zero domain-index gap": row(func(b []byte) []byte {
			b = binary.AppendUvarint(b, 2) // 2 pairs
			b = binary.AppendUvarint(b, 1) // dom 0
			b = binary.AppendUvarint(b, 1) // kind
			b = binary.AppendUvarint(b, 0) // gap 0: repeats dom 0
			return binary.AppendUvarint(b, 1)
		}),
		"domain index out of range": row(func(b []byte) []byte {
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, 5) // dom 4 of 2
			return binary.AppendUvarint(b, 1)
		}),
		"kind overflows uint8": row(func(b []byte) []byte {
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, 1)
			return binary.AppendUvarint(b, 300)
		}),
		"row truncated mid-pair": row(func(b []byte) []byte {
			return binary.AppendUvarint(b, 1)
		}),
	} {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: Decode accepted invalid row", name)
		}
	}
}

// TestGoldenSnapshot pins the wire format: the checked-in golden file
// must decode to the known matrix, and re-encoding the test source
// must reproduce it byte for byte. Regenerate deliberately with
// UPDATE_GOLDEN=1 if the format changes.
func TestGoldenSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "golden.snapshot")
	s, err := Compile(testSource())
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding of the test source no longer matches testdata/golden.snapshot (%d vs %d bytes) — the wire format changed", len(enc), len(want))
	}
	dec, err := Decode(want)
	if err != nil {
		t.Fatalf("Decode golden: %v", err)
	}
	v, ok := dec.Lookup("news.example", "CN")
	if !ok || !v.Blocked {
		t.Fatalf("golden snapshot lost the (news.example, CN) block: %+v %v", v, ok)
	}
	if dec.ETag() != s.ETag() {
		t.Fatalf("golden ETag %s != compiled ETag %s", dec.ETag(), s.ETag())
	}
}

func TestETagMatchesContent(t *testing.T) {
	s, err := Compile(testSource())
	if err != nil {
		t.Fatal(err)
	}
	sum := crc32.Checksum(s.Encode(), crc32.MakeTable(crc32.Castagnoli))
	if want := `"gbv1-7-` + hex8(sum) + `"`; s.ETag() != want {
		t.Fatalf("ETag = %s, want %s", s.ETag(), want)
	}
	// Different content, different tag.
	src := testSource()
	src.Entries = src.Entries[:len(src.Entries)-1]
	other, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if other.ETag() == s.ETag() {
		t.Fatalf("distinct matrices share ETag %s", s.ETag())
	}
}

func hex8(v uint32) string {
	const digits = "0123456789abcdef"
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// goldenETag is testdata/golden.snapshot's entity tag: the CRC-32C of
// the file itself, which is canonical.
const goldenETag = `"gbv1-7-80f03b47"`

// TestDecodeCanonicalETag pins the ETag a canonical input decodes to:
// the golden file's committed tag, and its own CRC-32C.
func TestDecodeCanonicalETag(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	if s.ETag() != goldenETag {
		t.Fatalf("golden snapshot decodes to ETag %s, want %s", s.ETag(), goldenETag)
	}
	if want := `"gbv1-7-` + hex8(crc32.Checksum(golden, crc32.MakeTable(crc32.Castagnoli))) + `"`; s.ETag() != want {
		t.Fatalf("ETag %s is not the input's own CRC %s", s.ETag(), want)
	}
}

// overlong returns a copy of the encoded snapshot enc whose frame i
// carries the one-byte varint at payload offset off in two bytes, the
// frame's length and CRC fixed up: the same snapshot, not in
// canonical form.
func overlong(t testing.TB, enc []byte, i, off int) []byte {
	t.Helper()
	out := []byte(wireMagic)
	pos := len(wireMagic)
	for f := 0; pos < len(enc); f++ {
		n := int(binary.LittleEndian.Uint32(enc[pos:]))
		p := append([]byte(nil), enc[pos+frameHeader:pos+frameHeader+n]...)
		if f == i {
			if p[off] >= 0x80 {
				t.Fatalf("frame %d offset %d holds no one-byte varint", i, off)
			}
			p = append(p[:off+1], append([]byte{0}, p[off+1:]...)...)
			p[off] |= 0x80
		}
		out = append(out, frame(p)...)
		pos += frameHeader + n
	}
	return out
}

// TestDecodeNonCanonicalETag decodes inputs with an overlong varint in
// the header, a row and the trailer: each decodes to the golden
// snapshot, takes its ETag from the re-encoding rather than from its
// own bytes, and re-encodes to the canonical bytes.
func TestDecodeNonCanonicalETag(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	rows := len(testSource().Countries)
	for _, c := range []struct {
		name     string
		frame, o int
	}{
		{"header version", 0, 1},
		{"header domain length", 0, 4},
		{"row index", 1, 1},
		{"last row count", rows, 2},
		{"trailer total", rows + 1, 1},
	} {
		in := overlong(t, golden, c.frame, c.o)
		if bytes.Equal(in, golden) {
			t.Fatalf("%s: the overlong copy equals the golden file", c.name)
		}
		s, err := Decode(in)
		if err != nil {
			t.Fatalf("%s: Decode: %v", c.name, err)
		}
		if !bytes.Equal(s.Encode(), golden) {
			t.Errorf("%s: re-encoding is not the canonical golden bytes", c.name)
		}
		re, err := Decode(s.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if s.ETag() != re.ETag() || s.ETag() != goldenETag {
			t.Errorf("%s: ETag %s, its re-encoding's %s, want %s", c.name, s.ETag(), re.ETag(), goldenETag)
		}
	}
}

// TestDecodeLayout holds Decode to a few dozen allocations whatever
// the snapshot's size, each row a capped sub-slice of the shared
// arrays, and nothing of the caller's buffer kept.
func TestDecodeLayout(t *testing.T) {
	const maxAllocs = 32
	for _, size := range [][2]int{{240, 177}, {2000, 50}} {
		src := bigSource(size[0], size[1], 7)
		c, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		enc := c.Encode()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Decode of %d × %d: %.0f allocations", size[0], size[1], allocs)
		if allocs > maxAllocs {
			t.Errorf("Decode of %d × %d makes %.0f allocations, want at most %d", size[0], size[1], allocs, maxAllocs)
		}

		buf := append([]byte(nil), enc...)
		s, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		for _, snap := range []*Snapshot{c, s} {
			for ci, row := range snap.rows {
				if cap(row.bits) != len(row.bits) || cap(row.doms) != len(row.doms) || cap(row.kinds) != len(row.kinds) {
					t.Fatalf("row %d's slices have room past their ends: bits %d/%d, doms %d/%d, kinds %d/%d",
						ci, len(row.bits), cap(row.bits), len(row.doms), cap(row.doms), len(row.kinds), cap(row.kinds))
				}
			}
		}
		if s.ETag() != c.ETag() {
			t.Fatalf("decoded ETag %s, compiled %s", s.ETag(), c.ETag())
		}
		for _, d := range c.Domains() {
			for _, cc := range c.Countries() {
				a, aok := c.Lookup(d, cc)
				b, bok := s.Lookup(d, cc)
				if a != b || aok != bok {
					t.Fatalf("Lookup(%q, %q) = %+v, %v after the input was overwritten; want %+v, %v", d, cc, b, bok, a, aok)
				}
			}
		}
	}
}
