// Package stats provides the deterministic random-number generation,
// sampling, and summary-statistics primitives shared by the rest of the
// geoblock reproduction. Every stochastic component of the simulated
// world is driven by an explicit *RNG so that a study run with a given
// seed is exactly reproducible.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is not safe for concurrent use; derive independent
// streams with Fork instead of sharing one generator across goroutines.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators built from
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child generator from the current state and
// a label. The parent stream is not advanced, so forks are stable: the
// same (state, label) pair always yields the same child. Use distinct
// labels for distinct subsystems.
func (r *RNG) Fork(label string) *RNG {
	h := r.state
	for _, b := range []byte(label) {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return NewRNG(mix(h))
}

// Mix64 applies the splitmix64 finalizer to z: a cheap, high-quality
// bit mixer for deriving per-item seeds from counters.
func Mix64(z uint64) uint64 { return mix(z) }

// Hash is the 64-bit FNV-1a hash of s: the one string hash behind every
// deterministic seed and draw keyed by a name. It is small enough to
// inline, so per-sample callers pay no call or interface dispatch.
func Hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Box–Muller
// transform.
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	return r.permute(make([]int, n))
}

// permute fills p with a pseudo-random permutation of [0, len(p)).
func (r *RNG) permute(p []int) []int {
	for i := range p {
		p[i] = i
	}
	Shuffle(r, p)
	return p
}

// Shuffle permutes s in place.
func Shuffle[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// SampleInts returns k distinct integers drawn uniformly from [0, n)
// in random order. It panics if k > n or k < 0.
func (r *RNG) SampleInts(n, k int) []int {
	var b SampleBuf
	return r.SampleIntsInto(&b, n, k)
}

// SampleBuf is the memory of SampleIntsInto draws. A caller making
// draw after draw keeps one, so that only the first draws allocate.
// The zero value is ready to use.
type SampleBuf struct {
	ints []int
	seen []uint64 // Floyd's membership set over [0, n), clear between draws
}

// SampleIntsInto is SampleInts drawing into b: it makes exactly
// SampleInts' RNG calls, in the same order, and returns the same
// integers, in b's memory, valid until b's next draw.
func (r *RNG) SampleIntsInto(b *SampleBuf, n, k int) []int {
	if k < 0 || k > n {
		panic("stats: SampleInts with k out of range")
	}
	// Floyd's algorithm: O(k) expected work, no O(n) work for small k;
	// fall back to a partial shuffle when k is a large fraction of n.
	if k > n/2 {
		return r.permute(b.grow(n))[:k]
	}
	out := b.grow(k)[:0]
	if words := (n + 63) / 64; len(b.seen) < words {
		b.seen = make([]uint64, words)
	}
	seen := b.seen
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if seen[t>>6]&(1<<(t&63)) != 0 {
			t = j
		}
		seen[t>>6] |= 1 << (t & 63)
		out = append(out, t)
	}
	for _, t := range out {
		seen[t>>6] &^= 1 << (t & 63)
	}
	Shuffle(r, out)
	return out
}

// grow returns b's integer buffer at length n, reallocated only when
// it has room for fewer.
func (b *SampleBuf) grow(n int) []int {
	if cap(b.ints) < n {
		b.ints = make([]int, n)
	}
	return b.ints[:n]
}

// Sample returns k distinct elements of s drawn uniformly without
// replacement.
func Sample[T any](r *RNG, s []T, k int) []T {
	idx := r.SampleInts(len(s), k)
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = s[j]
	}
	return out
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero or negative weights are treated as
// zero. It panics if no weight is positive.
func (r *RNG) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: WeightedChoice with no positive weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("unreachable")
}

// Zipf draws ranks in [1, n] following a Zipf distribution with the
// given exponent s > 0, using rejection-inversion. It is used to model
// popularity-skewed request and domain distributions.
type Zipf struct {
	rng         *RNG
	n           int
	s           float64
	hIntegralX1 float64
	hIntegralN  float64
	sDivided    float64
}

// NewZipf returns a Zipf sampler over ranks 1..n with exponent s.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n < 1 || s <= 0 {
		panic("stats: NewZipf with invalid parameters")
	}
	z := &Zipf{rng: rng, n: n, s: s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.sDivided = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2((1-z.s)*logX) * logX
}

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * (1 - z.s)
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1./3.-0.25*x))
}

func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1./3.)*(1+0.25*x))
}

// Rank draws a rank in [1, n].
func (z *Zipf) Rank() int {
	for {
		u := z.hIntegralN + z.rng.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInverse(u)
		k := math.Round(x)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sDivided || u >= z.hIntegral(k+0.5)-z.h(k) {
			return int(k)
		}
	}
}
