package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over float64
// observations. The zero value is empty; add observations with Add and
// finalize implicitly on first query.
type CDF struct {
	values []float64
	sorted bool
}

// NewCDF returns a CDF pre-populated with the given values.
func NewCDF(values ...float64) *CDF {
	c := &CDF{}
	for _, v := range values {
		c.Add(v)
	}
	return c
}

// Add records one observation.
func (c *CDF) Add(v float64) {
	c.values = append(c.values, v)
	c.sorted = false
}

// Len reports the number of observations.
func (c *CDF) Len() int { return len(c.values) }

func (c *CDF) ensure() {
	if !c.sorted {
		sort.Float64s(c.values)
		c.sorted = true
	}
}

// P returns the empirical probability that an observation is <= x.
// It returns 0 for an empty CDF.
func (c *CDF) P(x float64) float64 {
	if len(c.values) == 0 {
		return 0
	}
	c.ensure()
	i := sort.SearchFloat64s(c.values, x)
	// Advance past equal values so P is right-continuous (<= x).
	for i < len(c.values) && c.values[i] == x {
		i++
	}
	return float64(i) / float64(len(c.values))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using nearest-rank.
// It panics on an empty CDF or q outside [0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.values) == 0 {
		panic("stats: Quantile of empty CDF")
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile with q outside [0,1]")
	}
	c.ensure()
	if q == 0 {
		return c.values[0]
	}
	i := int(math.Ceil(q*float64(len(c.values)))) - 1
	if i < 0 {
		i = 0
	}
	return c.values[i]
}

// Points returns up to n evenly spaced (x, P(X<=x)) points suitable for
// plotting the CDF as a line series. Fewer points are returned if there
// are fewer distinct observations.
func (c *CDF) Points(n int) []Point {
	if len(c.values) == 0 || n <= 0 {
		return nil
	}
	c.ensure()
	var pts []Point
	prev := math.Inf(-1)
	step := len(c.values) / n
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(c.values); i += step {
		v := c.values[i]
		if v == prev {
			continue
		}
		prev = v
		pts = append(pts, Point{X: v, Y: float64(i+1) / float64(len(c.values))})
	}
	last := c.values[len(c.values)-1]
	if len(pts) == 0 || pts[len(pts)-1].X != last {
		pts = append(pts, Point{X: last, Y: 1})
	}
	return pts
}

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, the unit figures are built from.
type Series struct {
	Name   string
	Points []Point
}

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Median returns the nearest-rank median of vs. It panics on empty input.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		panic("stats: Median of empty slice")
	}
	c := NewCDF(vs...)
	return c.Quantile(0.5)
}

// MedianInts is Median over ints, returned as float64 (the average of
// the two central elements for even lengths, matching common usage when
// the paper reports e.g. "a median of 3 domains").
func MedianInts(vs []int) float64 {
	if len(vs) == 0 {
		panic("stats: MedianInts of empty slice")
	}
	s := append([]int(nil), vs...)
	sort.Ints(s)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return float64(s[n/2-1]+s[n/2]) / 2
}

// Histogram counts observations into fixed-width bins over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []int
	under    int
	over     int
	total    int
}

// NewHistogram builds a histogram with n bins spanning [min, max].
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic("stats: NewHistogram with invalid parameters")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, n)}
}

// Add records one observation; out-of-range values are tallied in
// underflow/overflow counters rather than dropped.
func (h *Histogram) Add(v float64) {
	h.total++
	switch i := Bin(v, h.Min, h.Max, len(h.Counts)); {
	case i >= 0:
		h.Counts[i]++
	case v < h.Min:
		h.under++
	default:
		h.over++
	}
}

// Bin returns the bin of n fixed-width bins over [lo, hi] that v falls
// in, or -1 when it falls outside them: the rule Add counts by, for
// callers that keep their bins in fixed arrays.
func Bin(v, lo, hi float64, n int) int {
	if !(v >= lo && v <= hi) {
		return -1
	}
	if v == hi {
		return n - 1
	}
	return min(int((v-lo)/((hi-lo)/float64(n))), n-1)
}

// Total reports the number of observations including out-of-range ones.
func (h *Histogram) Total() int { return h.total }

// MergeCounts folds externally accumulated observations into the
// histogram: counts adds bin-wise (its length must match the bin count;
// nil adds nothing in-range) and outOfRange observations land in the
// overflow tally. Merging is commutative, so histograms accumulated in
// pieces — one per scan unit, say — total the same as one accumulated
// live.
func (h *Histogram) MergeCounts(counts []int, outOfRange int) {
	for i, c := range counts {
		h.Counts[i] += c
		h.total += c
	}
	h.over += outOfRange
	h.total += outOfRange
}

// Fractions returns the in-range bin fractions of all observations.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// BinCenter returns the center x-value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + width*(float64(i)+0.5)
}

// Counter tallies occurrences of string keys; it underlies the
// by-country / by-category / by-TLD tables.
type Counter struct {
	counts map[string]int
}

// NewCounter returns an empty Counter.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int)} }

// Inc adds n to key's tally.
func (c *Counter) Inc(key string, n int) { c.counts[key] += n }

// Get returns key's tally.
func (c *Counter) Get(key string) int { return c.counts[key] }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.counts) }

// Total returns the sum of all tallies.
func (c *Counter) Total() int {
	var t int
	for _, n := range c.counts {
		t += n
	}
	return t
}

// KV is one key/count pair of a Counter in sorted order.
type KV struct {
	Key   string
	Count int
}

// Sorted returns all entries ordered by descending count, breaking ties
// by ascending key for deterministic output.
func (c *Counter) Sorted() []KV {
	out := make([]KV, 0, len(c.counts))
	for k, n := range c.counts {
		out = append(out, KV{k, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// TopN returns the n highest entries (or fewer).
func (c *Counter) TopN(n int) []KV {
	s := c.Sorted()
	if len(s) > n {
		s = s[:n]
	}
	return s
}
