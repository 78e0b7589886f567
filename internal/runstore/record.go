// The record codec: a deterministic binary encoding for journal
// records. Each record travels in a frame of
//
//	u32le payload length | u32le CRC-32C of payload | payload
//
// and the payload is a type byte followed by varint-coded fields
// (zigzag for signed, uvarint for unsigned, length-prefixed bytes for
// strings). The encoding has no maps, no floats, and no timestamps, so
// the same records always produce the same bytes — the golden journal
// stays stable across Go versions.
package runstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"geoblock/internal/geo"
	"geoblock/internal/scanner"
)

// Record types. The journal is a single interleaved stream: phases
// announce themselves once, then their samples and checkpoints carry
// the phase ID. Types 4 and 5 carried outage and coverage records,
// which resume recomputes from the checkpoints' loss reasons; they
// decode as unknown types.
const (
	recPhaseBegin byte = 1 // key, name, fingerprint
	recSample     byte = 2 // phase ID + one scanner.Sample
	recCheckpoint byte = 3 // phase ID + one completed shard
	recPhaseDone  byte = 6 // phase ID
)

// journalMagic opens the journal file and names its record format.
// GBRUNST4 is one file of the four record types above, whose
// checkpoints carry the unit's injected-fault counts; GBRUNST3
// checkpoints did not, GBRUNST2 was split into segments and also
// journaled outage and coverage records, and GBRUNST1 carried
// checkpoint metrics as JSON. Open refuses them all rather than read
// them as a torn tail.
const journalMagic = "GBRUNST4"

// frameHeader is the byte length of the length+CRC prefix.
const frameHeader = 8

// maxPayload bounds a single record payload; a frame announcing more
// is treated as corruption, not an allocation request.
const maxPayload = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is the decoded form of one journal record. Type selects which
// of the other fields are meaningful; Phase identifies the owning
// phase for every type but recPhaseBegin (where the ID is implicit in
// announcement order).
type Record struct {
	Type  byte
	Phase int

	// recPhaseBegin.
	Key         string
	Name        string
	Fingerprint uint64

	// recSample.
	Sample scanner.Sample

	// recCheckpoint.
	Checkpoint Checkpoint
}

// Checkpoint records one completed scheduler shard: its canonical
// sequence number, country, task and sample counts, loss reason, and
// what its session and fetch work counted. A checkpoint is the commit
// point for the sample records preceding it.
type Checkpoint struct {
	Seq     int
	Country string
	Tasks   int
	Samples int
	Lost    scanner.OutageReason
	// Metrics is the shard's scanner.UnitMetrics, encoded field by
	// field behind a presence byte; nil when the checkpoint carries
	// none.
	Metrics *scanner.UnitMetrics
	// Trace is transport-only: a fabric completion's trace events as
	// JSON. The journal writes it empty.
	Trace []byte
}

// encodeRecord renders rec's payload (type byte + fields).
func encodeRecord(rec Record) []byte {
	b := []byte{rec.Type}
	switch rec.Type {
	case recPhaseBegin:
		b = appendString(b, rec.Key)
		b = appendString(b, rec.Name)
		b = binary.AppendUvarint(b, rec.Fingerprint)
	case recSample:
		b = binary.AppendUvarint(b, uint64(rec.Phase))
		s := rec.Sample
		b = binary.AppendVarint(b, int64(s.Domain))
		b = binary.AppendVarint(b, int64(s.Country))
		b = binary.AppendUvarint(b, uint64(s.Attempt))
		b = binary.AppendUvarint(b, uint64(s.Err))
		b = binary.AppendVarint(b, int64(s.Status))
		b = binary.AppendVarint(b, int64(s.BodyLen))
		b = binary.AppendUvarint(b, uint64(s.ExitIP))
		b = binary.AppendUvarint(b, s.Seed)
		b = appendString(b, s.Body)
	case recCheckpoint:
		b = binary.AppendUvarint(b, uint64(rec.Phase))
		cp := rec.Checkpoint
		b = binary.AppendUvarint(b, uint64(cp.Seq))
		b = appendString(b, cp.Country)
		b = binary.AppendUvarint(b, uint64(cp.Tasks))
		b = binary.AppendUvarint(b, uint64(cp.Samples))
		b = binary.AppendUvarint(b, uint64(cp.Lost))
		b = appendMetrics(b, cp.Metrics)
		b = appendBytes(b, cp.Trace)
	case recPhaseDone:
		b = binary.AppendUvarint(b, uint64(rec.Phase))
	default:
		panic(fmt.Sprintf("runstore: encodeRecord of unknown type %d", rec.Type))
	}
	return b
}

// frame wraps a payload in the length+CRC header.
func frame(payload []byte) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// DecodeRecord parses one record payload (as framed by the store,
// after its CRC already checked out). Decoding is strict: unknown
// types, fields outside their target range, and payloads with missing
// or trailing bytes all error rather than round into a plausible
// record.
func DecodeRecord(payload []byte) (Record, error) {
	d := dec{b: payload}
	var rec Record
	t, err := d.u8()
	if err != nil {
		return rec, err
	}
	rec.Type = t
	switch t {
	case recPhaseBegin:
		rec.Key, err = d.str()
		if err == nil {
			rec.Name, err = d.str()
		}
		if err == nil {
			rec.Fingerprint, err = d.uvarint()
		}
	case recSample:
		rec.Phase, err = d.count()
		s := &rec.Sample
		if err == nil {
			var v int64
			v, err = d.rangedVarint(math.MinInt32, math.MaxInt32)
			s.Domain = int32(v)
		}
		if err == nil {
			var v int64
			v, err = d.rangedVarint(math.MinInt16, math.MaxInt16)
			s.Country = int16(v)
		}
		if err == nil {
			var v byte
			v, err = d.uvarint8()
			s.Attempt = v
		}
		if err == nil {
			var v byte
			v, err = d.uvarint8()
			s.Err = scanner.ErrCode(v)
		}
		if err == nil {
			var v int64
			v, err = d.rangedVarint(math.MinInt16, math.MaxInt16)
			s.Status = int16(v)
		}
		if err == nil {
			var v int64
			v, err = d.rangedVarint(math.MinInt32, math.MaxInt32)
			s.BodyLen = int32(v)
		}
		if err == nil {
			var v uint64
			v, err = d.uvarint()
			if err == nil && v > math.MaxUint32 {
				err = fmt.Errorf("runstore: exit IP %d overflows uint32", v)
			}
			s.ExitIP = geo.IP(v)
		}
		if err == nil {
			s.Seed, err = d.uvarint()
		}
		if err == nil {
			s.Body, err = d.str()
		}
	case recCheckpoint:
		rec.Phase, err = d.count()
		cp := &rec.Checkpoint
		if err == nil {
			cp.Seq, err = d.count()
		}
		if err == nil {
			cp.Country, err = d.str()
		}
		if err == nil {
			cp.Tasks, err = d.count()
		}
		if err == nil {
			cp.Samples, err = d.count()
		}
		if err == nil {
			var v byte
			v, err = d.uvarint8()
			if err == nil && scanner.OutageReason(v) > scanner.OutageDark {
				err = fmt.Errorf("runstore: checkpoint loss reason %d out of range", v)
			}
			cp.Lost = scanner.OutageReason(v)
		}
		if err == nil {
			cp.Metrics, err = d.metrics()
		}
		if err == nil {
			cp.Trace, err = d.bytes()
		}
	case recPhaseDone:
		rec.Phase, err = d.count()
	default:
		return rec, fmt.Errorf("runstore: unknown record type %d", t)
	}
	if err != nil {
		return rec, err
	}
	if len(d.b) != 0 {
		return rec, fmt.Errorf("runstore: %d trailing bytes after record type %d", len(d.b), t)
	}
	return rec, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// appendMetrics renders a checkpoint's metrics: a presence byte, then
// the fetcher flag and every counter in metricFields order.
func appendMetrics(b []byte, m *scanner.UnitMetrics) []byte {
	if m == nil {
		return append(b, 0)
	}
	fetcher := byte(0)
	if m.Fetcher {
		fetcher = 1
	}
	b = append(b, 1, fetcher)
	for _, f := range metricFields(m) {
		b = binary.AppendUvarint(b, uint64(*f))
	}
	return b
}

// metricFields lists m's counters in wire order, the one order both
// appendMetrics and dec.metrics follow.
func metricFields(m *scanner.UnitMetrics) []*int64 {
	f := make([]*int64, 0, 8+len(m.Results)+2*(len(m.Bytes.Counts)+2)+5)
	f = append(f, &m.Attempts, &m.OpenAttempts, &m.Brownouts, &m.Retries, &m.Rotations, &m.Probes, &m.FailedSweeps, &m.BreakerTrips)
	for i := range m.Results {
		f = append(f, &m.Results[i])
	}
	for _, h := range []*scanner.UnitHistogram{&m.Bytes, &m.Backoff} {
		for i := range h.Counts {
			f = append(f, &h.Counts[i])
		}
		f = append(f, &h.OutOfRange, &h.Sum)
	}
	return append(f, &m.Faults.Dark, &m.Faults.Churn, &m.Faults.ExitDown, &m.Faults.Stall, &m.Faults.Truncate)
}

var errTruncated = errors.New("runstore: truncated record payload")

// dec is a strict cursor over a record payload.
type dec struct{ b []byte }

func (d *dec) u8() (byte, error) {
	if len(d.b) == 0 {
		return 0, errTruncated
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, errTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

// rangedVarint decodes a signed field and rejects values outside
// [lo, hi] — a bit flip must not silently reinterpret a sample.
func (d *dec) rangedVarint(lo, hi int64) (int64, error) {
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("runstore: field value %d outside [%d,%d]", v, lo, hi)
	}
	return v, nil
}

// uvarint8 decodes an unsigned field that must fit a byte.
func (d *dec) uvarint8() (byte, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint8 {
		return 0, fmt.Errorf("runstore: field value %d overflows uint8", v)
	}
	return byte(v), nil
}

// flag decodes a byte that must be 0 or 1.
func (d *dec) flag() (bool, error) {
	v, err := d.u8()
	if err == nil && v > 1 {
		err = fmt.Errorf("runstore: flag byte %d is neither 0 nor 1", v)
	}
	return v == 1, err
}

// metrics decodes what appendMetrics wrote. A counter past MaxInt64
// is corruption: counts are never negative, so none may wrap.
func (d *dec) metrics() (*scanner.UnitMetrics, error) {
	present, err := d.flag()
	if err != nil || !present {
		return nil, err
	}
	m := &scanner.UnitMetrics{}
	if m.Fetcher, err = d.flag(); err != nil {
		return nil, err
	}
	for _, f := range metricFields(m) {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt64 {
			return nil, fmt.Errorf("runstore: checkpoint counter %d overflows int64", v)
		}
		*f = int64(v)
	}
	return m, nil
}

// count decodes a non-negative int-sized field (sequence numbers,
// lengths, phase IDs).
func (d *dec) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("runstore: count %d overflows", v)
	}
	return int(v), nil
}

func (d *dec) bytes() ([]byte, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	if n > len(d.b) {
		return nil, errTruncated
	}
	if n == 0 {
		return nil, nil
	}
	p := make([]byte, n)
	copy(p, d.b)
	d.b = d.b[n:]
	return p, nil
}

func (d *dec) str() (string, error) {
	p, err := d.bytes()
	return string(p), err
}
