package faults

import (
	"testing"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
)

func TestDeterministicVerdicts(t *testing.T) {
	p := Profile{DarkExits: 0.3, ExitFailure: 0.2, Stall: 0.1, Truncate: 0.1, Churn: 0.4, Brownout: 0.3}
	a := New(9).Default(p)
	b := New(9).Default(p)
	for i := 0; i < 500; i++ {
		exit := geo.IP(i * 7919)
		cc := geo.CountryCode("IR")
		if a.ExitDark(cc, exit) != b.ExitDark(cc, exit) {
			t.Fatal("ExitDark diverged for identical seeds")
		}
		if a.Churned(cc, exit, i%10) != b.Churned(cc, exit, i%10) {
			t.Fatal("Churned diverged for identical seeds")
		}
		if a.Brownout(cc, uint64(i), i%3) != b.Brownout(cc, uint64(i), i%3) {
			t.Fatal("Brownout diverged for identical seeds")
		}
		if a.Request(cc, exit, "x.com", uint64(i)) != b.Request(cc, exit, "x.com", uint64(i)) {
			t.Fatal("Request diverged for identical seeds")
		}
	}
	// A different seed must not reproduce the same dark set.
	c := New(10).Default(p)
	same := 0
	for i := 0; i < 500; i++ {
		if a.ExitDark("IR", geo.IP(i*7919)) == c.ExitDark("IR", geo.IP(i*7919)) {
			same++
		}
	}
	if same == 500 {
		t.Fatal("seeds 9 and 10 drew identical dark sets")
	}
}

func TestDarkFractionTracksProfile(t *testing.T) {
	in := New(21).Default(Profile{DarkExits: 0.5})
	dark := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if in.ExitDark("BR", geo.IP(i)) {
			dark++
		}
	}
	frac := float64(dark) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("dark fraction %.3f for DarkExits 0.5", frac)
	}
}

func TestPerCountryOverride(t *testing.T) {
	in := New(4).Country("IR", Profile{DarkExits: 1})
	for i := 0; i < 100; i++ {
		if !in.ExitDark("IR", geo.IP(i)) {
			t.Fatal("IR exit not dark under DarkExits 1")
		}
		if in.ExitDark("US", geo.IP(i)) {
			t.Fatal("US exit dark with no default profile")
		}
	}
}

func TestBrownoutClears(t *testing.T) {
	in := New(8).Default(Profile{Brownout: 1, BrownoutLen: 2})
	if !in.Brownout("US", 5, 0) || !in.Brownout("US", 5, 1) {
		t.Fatal("brownout should cover attempts 0 and 1")
	}
	if in.Brownout("US", 5, 2) {
		t.Fatal("brownout should clear at attempt 2")
	}
	perm := New(8).Default(Profile{Brownout: 1, BrownoutLen: -1})
	if !perm.Brownout("US", 5, 1000) {
		t.Fatal("permanent brownout cleared")
	}
}

func TestChurnKillsAfterStableThreshold(t *testing.T) {
	in := New(6).Default(Profile{Churn: 1})
	exit := geo.IP(12345)
	death := -1
	for served := 0; served < churnSpan+2; served++ {
		if in.Churned("DE", exit, served) {
			death = served
			break
		}
	}
	if death < 1 || death > churnSpan {
		t.Fatalf("churned exit died at served=%d, want within [1, %d]", death, churnSpan)
	}
	// Once dead, dead for every larger served count.
	for served := death; served < death+5; served++ {
		if !in.Churned("DE", exit, served) {
			t.Fatalf("exit resurrected at served=%d", served)
		}
	}
}

func TestRequestSplitsOneDraw(t *testing.T) {
	in := New(30).Default(Profile{ExitFailure: 0.2, Stall: 0.2, Truncate: 0.2})
	counts := map[proxy.FaultVerdict]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[in.Request("RU", geo.IP(i), "a.com", uint64(i))]++
	}
	for _, v := range []proxy.FaultVerdict{proxy.FaultExitDown, proxy.FaultStall, proxy.FaultTruncate} {
		frac := float64(counts[v]) / n
		if frac < 0.15 || frac > 0.25 {
			t.Fatalf("verdict %d drawn at %.3f, want ≈0.2", v, frac)
		}
	}
	if frac := float64(counts[proxy.FaultNone]) / n; frac < 0.35 || frac > 0.45 {
		t.Fatalf("clean fraction %.3f, want ≈0.4", frac)
	}
}

func TestNamedProfiles(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("only %d named profiles; the chaos matrix needs 6+", len(names))
	}
	for _, n := range names {
		p, ok := Named(n)
		if !ok {
			t.Fatalf("Names lists %q but Named rejects it", n)
		}
		if !p.active() {
			t.Fatalf("profile %q injects nothing", n)
		}
	}
	if _, ok := Named("nope"); ok {
		t.Fatal("Named accepted an unknown profile")
	}
}

func TestStoreCrashSeededThreshold(t *testing.T) {
	// The kill point is a pure function of the seed: two injectors with
	// the same seed sever at the same record count, and the hook is a
	// threshold, not a coin flip — false below, true at and beyond.
	firstFire := func(in *Injector, span int64) int64 {
		crash := in.StoreCrash(span)
		for written := int64(0); written <= span+1; written++ {
			if crash(written) {
				for w := written; w <= span+1; w++ {
					if !crash(w) {
						t.Fatalf("crash hook un-fired at written=%d after firing at %d", w, written)
					}
				}
				return written
			}
		}
		t.Fatalf("crash hook never fired within span %d", span)
		return 0
	}

	for _, span := range []int64{1, 25, 200} {
		a := firstFire(New(7), span)
		b := firstFire(New(7), span)
		if a != b {
			t.Fatalf("span %d: same seed fired at %d and %d", span, a, b)
		}
		if a < 1 || a > span {
			t.Fatalf("span %d: kill point %d outside [1, %d]", span, a, span)
		}
	}

	// Different seeds spread the kill point across the span.
	points := map[int64]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		points[firstFire(New(seed), 200)] = true
	}
	if len(points) < 2 {
		t.Fatal("32 seeds all chose the same kill point")
	}

	// A degenerate span clamps to 1: the very first append dies.
	if New(3).StoreCrash(0)(0) {
		t.Fatal("clamped hook fired before any record was appended")
	}
	if !New(3).StoreCrash(0)(1) {
		t.Fatal("clamped hook survived the first record")
	}
}

// TestWorkerDeathSeededThreshold mirrors the StoreCrash contract for
// the fabric's worker kill hook: the death point is a pure function of
// the seed, drawn from [1, span], and latches — a worker that should
// have died never comes back.
func TestWorkerDeathSeededThreshold(t *testing.T) {
	firstFire := func(in *Injector, span int64) int64 {
		kill := in.WorkerDeath(span)
		for executed := int64(0); executed <= span+1; executed++ {
			if kill(executed) {
				for e := executed; e <= span+1; e++ {
					if !kill(e) {
						t.Fatalf("kill hook un-fired at executed=%d after firing at %d", e, executed)
					}
				}
				return executed
			}
		}
		t.Fatalf("kill hook never fired within span %d", span)
		return 0
	}

	for _, span := range []int64{1, 8, 100} {
		a := firstFire(New(7), span)
		b := firstFire(New(7), span)
		if a != b {
			t.Fatalf("span %d: same seed fired at %d and %d", span, a, b)
		}
		if a < 1 || a > span {
			t.Fatalf("span %d: kill point %d outside [1, %d]", span, a, span)
		}
		if other := firstFire(New(8), 100); span == 100 && other == a {
			// Different seeds *may* collide, but across a span of 100 a
			// collision is a 1% draw; treat it as a red flag.
			t.Logf("seeds 7 and 8 share kill point %d (possible but suspicious)", a)
		}
	}

	// A degenerate span clamps to 1: the worker dies on its first unit.
	if at := firstFire(New(3), 1); at != 1 {
		t.Fatalf("span 1 fired at %d, want 1", at)
	}
	kill := New(3).WorkerDeath(-5)
	if !kill(1) {
		t.Fatal("negative span did not clamp to die-on-first-unit")
	}
}

// TestInjectorSeedAccessor: replay reporting reads the seed back.
func TestInjectorSeedAccessor(t *testing.T) {
	if got := New(42).Seed(); got != 42 {
		t.Fatalf("Seed() = %d, want 42", got)
	}
}
