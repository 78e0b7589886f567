// Package report renders tables and figure series as aligned text and
// CSV — the shared output layer of the cmd tools and the benchmark
// harness.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"

	"geoblock/internal/stats"
)

// Table writes an aligned text table with a title rule.
func Table(w io.Writer, title string, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	total := len(widths)*3 + 1
	for _, wd := range widths {
		total += wd
	}

	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", min(total, 100)))
	writeRow(w, headers, widths)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(w, sep, widths)
	for _, row := range rows {
		writeRow(w, row, widths)
	}
	fmt.Fprintln(w)
}

func writeRow(w io.Writer, cells []string, widths []int) {
	var b strings.Builder
	for i, cell := range cells {
		if i > 0 {
			b.WriteString("   ")
		}
		b.WriteString(cell)
		if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
			b.WriteString(strings.Repeat(" ", pad))
		}
	}
	fmt.Fprintln(w, b.String())
}

// CSV writes headers plus rows in RFC 4180 form.
func CSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SeriesCSV writes one or more series as long-form CSV
// (series,x,y rows).
func SeriesCSV(w io.Writer, series []stats.Series) error {
	rows := make([][]string, 0, 64)
	for _, s := range series {
		for _, p := range s.Points {
			rows = append(rows, []string{s.Name, formatFloat(p.X), formatFloat(p.Y)})
		}
	}
	return CSV(w, []string{"series", "x", "y"}, rows)
}

// Chart renders series as a simple ASCII line chart: good enough to
// eyeball the shape of a CDF or a cumulative curve in a terminal.
func Chart(w io.Writer, title string, series []stats.Series, width, height int) {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if math.IsInf(minX, 1) {
		fmt.Fprintf(w, "%s\n(no data)\n", title)
		return
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "*o+x#@%&"
	for si, s := range series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			x := int((p.X - minX) / (maxX - minX) * float64(width-1))
			y := int((p.Y - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - y
			grid[row][x] = mark
		}
	}

	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "y: [%s, %s]\n", formatFloat(minY), formatFloat(maxY))
	for _, row := range grid {
		fmt.Fprintf(w, "| %s\n", string(row))
	}
	fmt.Fprintf(w, "+%s\n", strings.Repeat("-", width+1))
	fmt.Fprintf(w, "x: [%s, %s]\n", formatFloat(minX), formatFloat(maxX))
	for si, s := range series {
		fmt.Fprintf(w, "  %c %s\n", marks[si%len(marks)], s.Name)
	}
	fmt.Fprintln(w)
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.4g", f)
}

// Itoa formats an int (tiny convenience for table rows).
func Itoa(n int) string { return fmt.Sprintf("%d", n) }

// PctStr formats a fraction as a percentage with one decimal.
func PctStr(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
