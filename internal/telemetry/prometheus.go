// Prometheus text exposition (version 0.0.4): the scrape format every
// Prometheus-compatible collector speaks. The snapshot's flat metric
// model maps directly — counters and gauges become series, labeled
// names ("a.b{k=v}") become real label sets, histograms become the
// cumulative _bucket/_sum/_count triple.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the exposition format's content type; the
// /debug/metrics handler negotiates into this format when a scraper
// asks for it (Accept: text/plain; version=0.0.4).
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes the snapshot in the Prometheus text
// exposition format. Output is deterministic: base names sorted, label
// sets in the registry's sorted order.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	writePromFamilies(&b, s.Counters, "counter")
	writePromFamilies(&b, s.Gauges, "gauge")
	for _, h := range s.Histograms {
		base, labels := promName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
		width := (h.Max - h.Min) / float64(len(h.Counts))
		cum := 0
		for i, c := range h.Counts {
			cum += c
			le := trimFloat(h.Min + width*float64(i+1))
			fmt.Fprintf(&b, "%s_bucket%s %d\n", base, promLabels(labels, "le", le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", base, promLabels(labels, "le", "+Inf"), h.Total)
		fmt.Fprintf(&b, "%s_sum%s %d\n", base, promLabels(labels), h.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", base, promLabels(labels), h.Total)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromFamilies groups metrics by base name so each family's TYPE
// line appears exactly once, with its label sets beneath it.
func writePromFamilies(b *strings.Builder, ms []Metric, typ string) {
	type series struct {
		labels [][2]string
		value  int64
	}
	families := map[string][]series{}
	var order []string
	for _, m := range ms {
		base, labels := promName(m.Name)
		if _, ok := families[base]; !ok {
			order = append(order, base)
		}
		families[base] = append(families[base], series{labels, m.Value})
	}
	sort.Strings(order)
	for _, base := range order {
		fmt.Fprintf(b, "# TYPE %s %s\n", base, typ)
		for _, s := range families[base] {
			fmt.Fprintf(b, "%s%s %d\n", base, promLabels(s.labels), s.value)
		}
	}
}

// promName splits a registry metric name into a Prometheus-legal base
// name and its label pairs: "scanner.fetch.results{code=timeout}" →
// "scanner_fetch_results", [[code timeout]].
func promName(name string) (string, [][2]string) {
	var labels [][2]string
	if i := strings.IndexByte(name, '{'); i >= 0 {
		body := strings.TrimSuffix(name[i+1:], "}")
		name = name[:i]
		for _, pair := range strings.Split(body, ",") {
			if k, v, ok := strings.Cut(pair, "="); ok {
				labels = append(labels, [2]string{promSanitize(k), v})
			}
		}
	}
	return promSanitize(name), labels
}

// promSanitize maps a name onto the exposition charset
// [a-zA-Z0-9_:]; everything else becomes '_'.
func promSanitize(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set (plus optional extra pairs appended
// at the end), empty string for no labels.
func promLabels(labels [][2]string, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	emit := func(k, v string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(v))
	}
	for _, kv := range labels {
		emit(kv[0], kv[1])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		emit(extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}
