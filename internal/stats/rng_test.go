package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestForkStable(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Fork("world")
	c2 := r.Fork("world")
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("fork with same label not stable")
	}
	c3 := r.Fork("proxy")
	c4 := r.Fork("world")
	if c3.Uint64() == c4.Uint64() {
		t.Fatal("forks with different labels collide")
	}
}

func TestForkDoesNotAdvanceParent(t *testing.T) {
	a := NewRNG(9)
	b := NewRNG(9)
	a.Fork("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fork advanced parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Uniformish(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestBoolExtremes(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	for n := 0; n < 50; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleIntsDistinct(t *testing.T) {
	r := NewRNG(23)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%100 + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleInts(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIntsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).SampleInts(3, 4)
}

func TestSampleElements(t *testing.T) {
	r := NewRNG(29)
	in := []string{"a", "b", "c", "d", "e"}
	out := Sample(r, in, 3)
	if len(out) != 3 {
		t.Fatalf("got %d elements", len(out))
	}
	seen := map[string]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate element %q", v)
		}
		seen[v] = true
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRNG(31)
	w := []float64{0, 1, 3, 0}
	counts := make([]int, len(w))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(w)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatal("zero-weight index chosen")
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoicePanicsAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).WeightedChoice([]float64{0, 0})
}

func TestZipfRanksInRange(t *testing.T) {
	r := NewRNG(37)
	z := NewZipf(r, 1000, 1.1)
	for i := 0; i < 10000; i++ {
		k := z.Rank()
		if k < 1 || k > 1000 {
			t.Fatalf("rank %d out of range", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(41)
	z := NewZipf(r, 1000, 1.2)
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Rank()]++
	}
	if counts[1] <= counts[100] {
		t.Fatalf("rank 1 (%d) not more common than rank 100 (%d)", counts[1], counts[100])
	}
	if counts[1] < n/20 {
		t.Fatalf("rank 1 count %d suspiciously low for Zipf", counts[1])
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := NewRNG(43)
	s := []int{1, 2, 3, 4, 5, 6}
	Shuffle(r, s)
	sum := 0
	for _, v := range s {
		sum += v
	}
	if sum != 21 || len(s) != 6 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

// sampleIntsOracle is SampleInts as it was written before draws went
// into caller-owned buffers: Floyd's algorithm over a map for small k,
// a whole permutation for large k.
func sampleIntsOracle(r *RNG, n, k int) []int {
	if k > n/2 {
		p := r.Perm(n)
		return p[:k]
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	Shuffle(r, out)
	return out
}

// TestSampleIntsIntoMatchesOracle draws from two generators in step,
// one through the oracle and one through SampleIntsInto with a single
// buffer reused across every draw (and through SampleInts), over many
// (seed, n, k) — k = 0, n/2, n/2+1 and n among them: each draw must
// return the oracle's integers and leave the generator in the oracle's
// state.
func TestSampleIntsIntoMatchesOracle(t *testing.T) {
	var buf SampleBuf
	draws := 0
	for seed := uint64(0); seed < 20; seed++ {
		want, got := NewRNG(seed), NewRNG(seed)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 65, 100, 129, 1000} {
			ks := []int{0, n / 2, n/2 + 1, n, int(want.state % uint64(n+1)), n / 5}
			for _, k := range ks {
				if k > n {
					continue
				}
				w := sampleIntsOracle(want, n, k)
				var g []int
				if draws%3 == 2 {
					g = got.SampleInts(n, k)
				} else {
					g = got.SampleIntsInto(&buf, n, k)
				}
				draws++
				if !slices.Equal(g, w) {
					t.Fatalf("seed %d, n %d, k %d: drew %v, the oracle %v", seed, n, k, g, w)
				}
				if got.state != want.state {
					t.Fatalf("seed %d, n %d, k %d: generator state %#x after the draw, the oracle's %#x", seed, n, k, got.state, want.state)
				}
			}
		}
	}
	for _, w := range buf.seen {
		if w != 0 {
			t.Fatalf("the membership set holds %#x after %d draws, want it clear", w, draws)
		}
	}
}

// TestSampleIntsIntoReusesMemory pins the point of SampleIntsInto: after
// the first draw, a draw of the same size allocates nothing.
func TestSampleIntsIntoReusesMemory(t *testing.T) {
	r := NewRNG(3)
	for _, k := range []int{20, 80} {
		var buf SampleBuf
		r.SampleIntsInto(&buf, 100, k)
		if allocs := testing.AllocsPerRun(100, func() { r.SampleIntsInto(&buf, 100, k) }); allocs != 0 {
			t.Errorf("k %d of 100: %.1f allocations per reused draw, want 0", k, allocs)
		}
	}
}
