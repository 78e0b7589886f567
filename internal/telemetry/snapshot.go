// Snapshot export. A Snapshot is a point-in-time copy of a Registry
// flattened into sorted slices — no maps survive into the export, so
// both the text and JSON encodings are deterministic byte for byte.
// Deterministic() further strips runtime-class metrics, producing the
// view that must be identical across Concurrency levels under the
// engine's determinism contract.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Metric is one exported counter or gauge value.
type Metric struct {
	Name    string `json:"name"`
	Value   int64  `json:"value"`
	Runtime bool   `json:"runtime,omitempty"`
}

// HistogramStats exports one histogram: bin counts over [Min, Max),
// the observation total, how many observations fell outside the range,
// and the integer-truncated sum.
type HistogramStats struct {
	Name       string  `json:"name"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	Counts     []int   `json:"counts"`
	Total      int     `json:"total"`
	OutOfRange int     `json:"out_of_range"`
	Sum        int64   `json:"sum"`
	Runtime    bool    `json:"runtime,omitempty"`
}

// Snapshot is a registry export. All slices are sorted by name, so two
// snapshots of registries that recorded the same events encode to the
// same bytes.
type Snapshot struct {
	Counters   []Metric         `json:"counters"`
	Gauges     []Metric         `json:"gauges"`
	Histograms []HistogramStats `json:"histograms"`
}

// Snapshot exports the registry's current state. Safe to call while a
// scan is running; each metric is read atomically (the snapshot as a
// whole is not one consistent cut, which only matters mid-run).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}

	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := r.counters[name]
		snap.Counters = append(snap.Counters, Metric{Name: name, Value: c.Value(), Runtime: c.runtime})
	}

	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := r.gauges[name]
		snap.Gauges = append(snap.Gauges, Metric{Name: name, Value: g.Value(), Runtime: g.runtime})
	}

	names = names[:0]
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap.Histograms = append(snap.Histograms, r.hists[name].export(name))
	}
	return snap
}

func (h *Histogram) export(name string) HistogramStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := make([]int, len(h.h.Counts))
	copy(counts, h.h.Counts)
	in := 0
	for _, c := range counts {
		in += c
	}
	return HistogramStats{
		Name:       name,
		Min:        h.h.Min,
		Max:        h.h.Max,
		Counts:     counts,
		Total:      h.h.Total(),
		OutOfRange: h.h.Total() - in,
		Sum:        h.sum,
		Runtime:    h.runtime,
	}
}

// Deterministic returns a copy with runtime-class metrics removed:
// exactly the content that the determinism contract promises is
// identical at any Concurrency. The chaos matrix byte-compares this
// view across schedules.
func (s *Snapshot) Deterministic() *Snapshot {
	out := &Snapshot{}
	for _, m := range s.Counters {
		if !m.Runtime {
			out.Counters = append(out.Counters, m)
		}
	}
	for _, m := range s.Gauges {
		if !m.Runtime {
			out.Gauges = append(out.Gauges, m)
		}
	}
	for _, h := range s.Histograms {
		if h.Runtime {
			continue
		}
		hc := h
		hc.Counts = append([]int(nil), h.Counts...)
		out.Histograms = append(out.Histograms, hc)
	}
	return out
}

// WriteText writes the snapshot in its plain-text form: one metric per
// line grouped into sections.
func (s *Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# counters\n")
	writeMetrics(&b, s.Counters)
	b.WriteString("\n# gauges\n")
	writeMetrics(&b, s.Gauges)
	b.WriteString("\n# histograms\n")
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%s [%s,%s) total=%d oor=%d sum=%d bins=", h.Name,
			trimFloat(h.Min), trimFloat(h.Max), h.Total, h.OutOfRange, h.Sum)
		for i, c := range h.Counts {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(c))
		}
		if h.Runtime {
			b.WriteString(" (runtime)")
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Text returns the plain-text form as a string.
func (s *Snapshot) Text() string {
	var b strings.Builder
	_ = s.WriteText(&b) // strings.Builder never errors
	return b.String()
}

// JSON returns the indented JSON form with a trailing newline.
func (s *Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the snapshot to path: JSON when the name ends in
// ".json", text otherwise. The write is atomic (see WriteFileAtomic).
func (s *Snapshot) WriteFile(path string) error {
	var data []byte
	if strings.HasSuffix(path, ".json") {
		b, err := s.JSON()
		if err != nil {
			return err
		}
		data = b
	} else {
		data = []byte(s.Text())
	}
	return WriteFileAtomic(path, data)
}

// WriteFileAtomic replaces path with data, mode 0644. The data lands in
// a temp file in the same directory, is synced, and renames over path,
// so a crash mid-write (or a concurrent reader) never sees a
// half-written file, only the old one or the new one. On error the temp
// file is removed and path is untouched. Snapshots, traces, and the
// journal's manifest all write through here.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

func writeMetrics(b *strings.Builder, ms []Metric) {
	for _, m := range ms {
		b.WriteString(m.Name)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(m.Value, 10))
		if m.Runtime {
			b.WriteString(" (runtime)")
		}
		b.WriteByte('\n')
	}
}

// trimFloat renders a bucket bound without trailing zeros (8000, 0.5).
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
