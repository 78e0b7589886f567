// Fixture: the mapsort analyzer. Map iteration order must not escape
// into writers, sinks, output slices, or a key kept past the loop;
// order-independent folds and the collect-then-sort idiom stay legal.
package msfix

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Writing a table row per map entry emits in map order.
func printRates(w io.Writer, rates map[string]float64) {
	for cc, r := range rates {
		fmt.Fprintf(w, "%s %.2f\n", cc, r) // want "Fprintf .writes to an io.Writer. inside range over a map"
	}
}

// Building a string via a writer method is the same leak.
func joined(m map[string]int) string {
	b := new(strings.Builder)
	for k := range m {
		b.WriteString(k) // want "WriteString .writes to an io.Writer. inside range over a map"
	}
	return b.String()
}

// sink mimics the engine's streaming Emit vocabulary.
type sink struct{}

func (sink) Emit(s string) error { return nil }

// Emitting per entry delivers samples in map order.
func drain(s sink, m map[string]bool) error {
	for k := range m {
		if err := s.Emit(k); err != nil { // want "Emit inside range over a map emits in map iteration order"
			return err
		}
	}
	return nil
}

// Appending to an outer slice freezes map order into element order.
func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "appends to out in map iteration order"
	}
	return out
}

// Collect-then-sort is the sanctioned fix.
func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Order-independent folds are legal.
func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// A loop-local accumulator's order dies with the iteration.
func widest(m map[string][]int) int {
	widest := 0
	for _, vs := range m {
		var acc []int
		acc = append(acc, vs...)
		if len(acc) > widest {
			widest = len(acc)
		}
	}
	return widest
}

// An argmin that keeps the key picks among tied values by map order.
func worst(rates map[string]float64) string {
	w, wr := "", 1.0
	for cc, r := range rates {
		if r < wr {
			w, wr = cc, r // want "assigns its key to w, declared before the loop"
		}
	}
	return w
}

// A range with an outer key variable keeps whichever key came last.
func anyKey(m map[string]int) string {
	var k string
	for k = range m { // want "assigns its key to k, declared before the loop"
		break
	}
	return k
}

// The same argmin over the sorted keys keeps the lowest tied key.
func worstSorted(rates map[string]float64) string {
	codes := make([]string, 0, len(rates))
	for cc := range rates {
		codes = append(codes, cc)
	}
	sort.Strings(codes)
	w, wr := "", 1.0
	for _, cc := range codes {
		if r := rates[cc]; r < wr {
			w, wr = cc, r
		}
	}
	return w
}

// A key kept in a loop-local variable dies with the iteration.
func longestKey(m map[string]int) int {
	n := 0
	for k := range m {
		kk := k
		kk = k
		n = max(n, len(kk))
	}
	return n
}
