// The snapshot codec: the runstore wire style (CRC-framed records,
// varint fields, no maps, no floats, no timestamps) applied to the
// verdict matrix, so snapshots persist to disk and reload bit-exact.
//
// A snapshot file is the 8-byte magic followed by framed records:
// exactly one header (version, seed, interned tables), one row record
// per country in table order (delta-coded sorted domain indices plus
// page kinds), and one trailer carrying the blocked-pair total as an
// end-to-end cross-check. Each frame is
//
//	u32le payload length | u32le CRC-32C of payload | payload
//
// Decoding is strict: a bad magic, torn frame, CRC mismatch, record
// out of order, index out of range, non-ascending domain index,
// count mismatch, or trailing bytes all error — corrupt or truncated
// input must never round into a plausible matrix.
package verdict

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"geoblock/internal/geo"
)

// wireMagic opens every encoded snapshot.
const wireMagic = "GBVERD01"

// Record types.
const (
	recHeader  byte = 1 // version, seed, domain table, country table
	recRow     byte = 2 // country index, blocked pairs (delta dom idx, kind)
	recTrailer byte = 3 // total blocked pairs
)

// frameHeader is the byte length of the length+CRC prefix.
const frameHeader = 8

// maxPayload bounds a single record payload; a frame announcing more
// is treated as corruption, not an allocation request.
const maxPayload = 64 << 20

// maxTableLen bounds the interned table sizes a decoder will build
// before reading their content — a corrupt count must not become a
// giant allocation.
const maxTableLen = 1 << 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode renders the snapshot in its canonical binary form. The
// encoding is deterministic: the same matrix always produces the same
// bytes, which is what makes the ETag a content hash and golden files
// stable.
func (s *Snapshot) Encode() []byte {
	h := []byte{recHeader}
	h = binary.AppendUvarint(h, s.version)
	h = binary.AppendUvarint(h, s.seed)
	h = binary.AppendUvarint(h, uint64(len(s.domains)))
	for _, d := range s.domains {
		h = appendString(h, d)
	}
	h = binary.AppendUvarint(h, uint64(len(s.countries)))
	for _, cc := range s.countries {
		h = appendString(h, string(cc))
	}
	out := append([]byte(wireMagic), frame(h)...)

	for ci := range s.rows {
		row := &s.rows[ci]
		b := []byte{recRow}
		b = binary.AppendUvarint(b, uint64(ci))
		b = binary.AppendUvarint(b, uint64(len(row.doms)))
		prev := int32(-1)
		for i, di := range row.doms {
			// Delta from the previous index; sorted and unique, so the
			// gap is always ≥ 1 and the varints stay small.
			b = binary.AppendUvarint(b, uint64(di-prev))
			b = binary.AppendUvarint(b, uint64(row.kinds[i]))
			prev = di
		}
		out = append(out, frame(b)...)
	}

	t := []byte{recTrailer}
	t = binary.AppendUvarint(t, uint64(s.blocked))
	return append(out, frame(t)...)
}

// computeETag derives the strong entity tag from the canonical
// encoding: two snapshots answer identically iff their tags match.
func computeETag(s *Snapshot) string {
	return formatETag(s.version, crc32.Checksum(s.Encode(), castagnoli))
}

// formatETag renders the quoted tag of a snapshot at version whose
// canonical encoding has CRC-32C sum.
func formatETag(version uint64, sum uint32) string {
	return fmt.Sprintf("\"gbv1-%d-%08x\"", version, sum)
}

// Decode parses an encoded snapshot. The returned snapshot is fully
// indexed and ready to serve; its ETag equals the one the encoding
// side computed.
//
// Decode keeps nothing of b, and its allocations do not grow with the
// matrix: the names are substrings of one copy of the header payload,
// and the rows share one bitset array and one array each of domain
// indices and kinds, sized by the row records' pair counts before any
// row is read. Only the domain map's tables grow with the domain
// count: a decode makes 14 allocations at 240 domains × 177 countries,
// 20 at 2,000 × 50 and 46 at 10,000 × 100. When every varint in b is
// minimal, decode∘encode is the identity — b is byte for byte what
// Encode writes — so b's own CRC-32C gives the ETag; only a
// non-canonical input is re-encoded for it.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(wireMagic) || string(b[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("verdict: bad snapshot magic")
	}
	in := b
	b = b[len(wireMagic):]

	s := &Snapshot{}
	var rw rowWriter
	sawHeader := false
	sawTrailer := false
	canonical := true
	for len(b) > 0 {
		if sawTrailer {
			return nil, fmt.Errorf("verdict: %d trailing bytes after snapshot trailer", len(b))
		}
		if len(b) < frameHeader {
			return nil, fmt.Errorf("verdict: torn frame header (%d bytes)", len(b))
		}
		n := binary.LittleEndian.Uint32(b[0:4])
		sum := binary.LittleEndian.Uint32(b[4:8])
		if n > maxPayload || int(n) > len(b)-frameHeader {
			return nil, fmt.Errorf("verdict: frame length %d overruns payload", n)
		}
		payload := b[frameHeader : frameHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, fmt.Errorf("verdict: frame CRC mismatch")
		}
		b = b[frameHeader+int(n):]

		d := dec{b: payload}
		t, err := d.u8()
		if err != nil {
			return nil, err
		}
		switch t {
		case recHeader:
			if sawHeader {
				return nil, fmt.Errorf("verdict: duplicate snapshot header")
			}
			sawHeader = true
			if err := s.decodeHeader(&d); err != nil {
				return nil, err
			}
			rw = newRowWriter(s, pairCount(b))
		case recRow:
			if !sawHeader {
				return nil, fmt.Errorf("verdict: row record before header")
			}
			if rw.row >= len(s.countries) {
				return nil, fmt.Errorf("verdict: more row records than countries")
			}
			if err := rw.decodeRow(&d); err != nil {
				return nil, err
			}
		case recTrailer:
			if !sawHeader {
				return nil, fmt.Errorf("verdict: trailer before header")
			}
			if rw.row != len(s.countries) {
				return nil, fmt.Errorf("verdict: trailer after %d of %d country rows", rw.row, len(s.countries))
			}
			total, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if int(total) != len(rw.doms) {
				return nil, fmt.Errorf("verdict: trailer claims %d blocked pairs, rows hold %d", total, len(rw.doms))
			}
			sawTrailer = true
		default:
			return nil, fmt.Errorf("verdict: unknown record type %d", t)
		}
		if len(d.b) != 0 {
			return nil, fmt.Errorf("verdict: %d trailing bytes in record type %d", len(d.b), t)
		}
		canonical = canonical && !d.overlong
	}
	if !sawTrailer {
		return nil, fmt.Errorf("verdict: snapshot carries no trailer")
	}
	s.blocked = len(rw.doms)
	if canonical {
		s.etag = formatETag(s.version, crc32.Checksum(in, castagnoli))
	} else {
		s.etag = computeETag(s)
	}
	return s, nil
}

// pairCount sums the pair counts the row records in b claim, each
// bounded by its record's length (a pair takes at least two bytes), so
// that a corrupt count cannot become a giant allocation. It checks
// nothing else: Decode checks every record as it reads it.
func pairCount(b []byte) int {
	total := 0
	for len(b) >= frameHeader {
		n := binary.LittleEndian.Uint32(b[0:4])
		if int64(n) > int64(len(b)-frameHeader) {
			break
		}
		d := dec{b: b[frameHeader : frameHeader+int(n)]}
		b = b[frameHeader+int(n):]
		if t, err := d.u8(); err != nil || t != recRow {
			continue
		}
		if _, err := d.uvarint(); err != nil {
			continue
		}
		if pairs, err := d.uvarint(); err == nil {
			total += int(min(pairs, uint64(len(d.b)/2)))
		}
	}
	return total
}

// decodeHeader reads the header record into s: the names are
// substrings of one copy of the record, never of the caller's buffer.
func (s *Snapshot) decodeHeader(d *dec) error {
	d.text = string(d.b)
	var err error
	if s.version, err = d.uvarint(); err != nil {
		return err
	}
	if s.seed, err = d.uvarint(); err != nil {
		return err
	}
	nd, err := d.tableLen()
	if err != nil {
		return err
	}
	s.domains = make([]string, 0, min(nd, len(d.b)))
	prev := ""
	for i := 0; i < nd; i++ {
		v, err := d.str()
		if err != nil {
			return err
		}
		if i > 0 && v <= prev {
			return fmt.Errorf("verdict: domain table not strictly sorted at %q", v)
		}
		s.domains = append(s.domains, v)
		prev = v
	}
	nc, err := d.tableLen()
	if err != nil {
		return err
	}
	s.countries = make([]geo.CountryCode, 0, min(nc, len(d.b)))
	prev = ""
	for i := 0; i < nc; i++ {
		v, err := d.str()
		if err != nil {
			return err
		}
		if i > 0 && v <= prev {
			return fmt.Errorf("verdict: country table not strictly sorted at %q", v)
		}
		s.countries = append(s.countries, geo.CountryCode(v))
		prev = v
	}
	s.index()
	return nil
}

// decodeRow reads the next country's row record and closes its row.
func (w *rowWriter) decodeRow(d *dec) error {
	ci, err := d.uvarint()
	if err != nil {
		return err
	}
	if ci != uint64(w.row) {
		return fmt.Errorf("verdict: row record for country %d out of order (want %d)", ci, w.row)
	}
	n, err := d.tableLen()
	if err != nil {
		return err
	}
	domains := len(w.s.domains)
	if n > domains {
		return fmt.Errorf("verdict: row %d claims %d blocked of %d domains", ci, n, domains)
	}
	prev := int32(-1)
	for i := 0; i < n; i++ {
		gap, err := d.uvarint()
		if err != nil {
			return err
		}
		if gap == 0 || gap > uint64(domains) {
			return fmt.Errorf("verdict: row %d domain-index gap %d invalid", ci, gap)
		}
		di := prev + int32(gap)
		if int(di) >= domains {
			return fmt.Errorf("verdict: row %d domain index %d out of range", ci, di)
		}
		kind, err := d.uvarint8()
		if err != nil {
			return err
		}
		w.add(di, kind)
		prev = di
	}
	w.end()
	return nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// frame wraps a payload in the length+CRC header.
func frame(payload []byte) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// dec is a strict cursor over one record payload. It notes whether
// any varint it read was longer than it needs to be: Encode writes
// none, so an input holding one is not Encode's bytes.
type dec struct {
	b        []byte
	text     string // a copy of b as it stood when set, for str
	overlong bool
}

func (d *dec) u8() (byte, error) {
	if len(d.b) == 0 {
		return 0, fmt.Errorf("verdict: truncated record payload")
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("verdict: truncated record payload")
	}
	// A varint with more bytes than its value needs ends in a zero.
	d.overlong = d.overlong || (n > 1 && d.b[n-1] == 0)
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) uvarint8() (byte, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint8 {
		return 0, fmt.Errorf("verdict: field value %d overflows uint8", v)
	}
	return byte(v), nil
}

// tableLen decodes a table length, bounded so corrupt counts fail
// instead of allocating.
func (d *dec) tableLen() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxTableLen {
		return 0, fmt.Errorf("verdict: table length %d exceeds limit", v)
	}
	return int(v), nil
}

func (d *dec) str() (string, error) {
	n, err := d.tableLen()
	if err != nil {
		return "", err
	}
	if n > len(d.b) {
		return "", fmt.Errorf("verdict: truncated record payload")
	}
	off := len(d.text) - len(d.b)
	d.b = d.b[n:]
	return d.text[off : off+n], nil
}
