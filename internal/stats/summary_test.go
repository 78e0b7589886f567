package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.P(10) != 0 {
		t.Fatal("empty CDF P != 0")
	}
	if c.Len() != 0 {
		t.Fatal("empty CDF Len != 0")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF(1, 2, 3, 4)
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); got != tc.want {
			t.Errorf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFMonotonic(t *testing.T) {
	r := NewRNG(1)
	c := &CDF{}
	for i := 0; i < 500; i++ {
		c.Add(r.NormFloat64() * 10)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.P(lo) <= c.P(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF(10, 20, 30, 40, 50)
	if got := c.Quantile(0.5); got != 30 {
		t.Fatalf("median = %v", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Fatalf("q1 = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&CDF{}).Quantile(0.5)
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF(1, 1, 2, 3, 3, 3, 9)
	pts := c.Points(100)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatalf("x not strictly increasing: %v", pts)
		}
		if pts[i].Y < pts[i-1].Y {
			t.Fatalf("y not monotone: %v", pts)
		}
	}
	if last := pts[len(pts)-1]; last.Y != 1 {
		t.Fatalf("final point y = %v, want 1", last.Y)
	}
}

func TestMeanMedian(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("Median = %v", m)
	}
	if m := MedianInts([]int{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("MedianInts even = %v", m)
	}
	if m := MedianInts([]int{7}); m != 7 {
		t.Fatalf("MedianInts single = %v", m)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 1.9, 2, 9.99, 10, 11} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.under != 1 || h.over != 1 {
		t.Fatalf("under/over = %d/%d", h.under, h.over)
	}
	// 0 and 1.9 in bin 0; 2 in bin 1; 9.99 and 10 in bin 4.
	want := []int{2, 1, 0, 0, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bin %d = %d, want %d (%v)", i, c, want[i], h.Counts)
		}
	}
	fr := h.Fractions()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-5.0/7.0) > 1e-12 {
		t.Fatalf("fractions sum = %v", sum)
	}
	if bc := h.BinCenter(0); bc != 1 {
		t.Fatalf("bin center = %v", bc)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("iran", 3)
	c.Inc("syria", 5)
	c.Inc("iran", 1)
	c.Inc("cuba", 4)
	if c.Get("iran") != 4 || c.Total() != 13 || c.Len() != 3 {
		t.Fatal("counter arithmetic wrong")
	}
	s := c.Sorted()
	if s[0].Key != "syria" || s[1].Key != "cuba" || s[2].Key != "iran" {
		t.Fatalf("sorted order wrong: %v", s)
	}
	top := c.TopN(2)
	if len(top) != 2 || top[0].Key != "syria" {
		t.Fatalf("TopN wrong: %v", top)
	}
}

func TestCounterTieBreakDeterministic(t *testing.T) {
	c := NewCounter()
	c.Inc("b", 2)
	c.Inc("a", 2)
	s := c.Sorted()
	if s[0].Key != "a" {
		t.Fatalf("ties must sort by key: %v", s)
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	r := NewRNG(99)
	f := func(n uint8) bool {
		size := int(n)%50 + 1
		vs := make([]float64, size)
		for i := range vs {
			vs[i] = r.Float64() * 100
		}
		c := NewCDF(vs...)
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		return c.Quantile(1) == sorted[size-1] && c.Quantile(0) == sorted[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
