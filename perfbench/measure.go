package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// minPasses is the fewest timed passes a run makes however short
// --seconds is: one for each world.
const minPasses = worldsPerRun

// heapSampleEvery is how often the live heap is read while a timed
// section runs; the high-water mark of those reads is its peak heap.
const heapSampleEvery = 2 * time.Millisecond

// percentile returns the p-th percentile (0–100) of xs, interpolating
// linearly between the closest ranks. xs is left unchanged; no values
// give NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// cost is what one timed section used.
type cost struct {
	wall    time.Duration
	cpu     time.Duration // process CPU time, user and system
	mallocs uint64
	peak    uint64 // high-water live heap, bytes
}

// measure runs f from a collected heap, so that earlier garbage is not
// billed to f, and returns its wall and CPU time, heap allocations and
// peak live heap.
func measure(f func()) cost {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := sampleHeap()
	cpu0 := processCPU()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	cpu := processCPU() - cpu0
	peak := stop()
	runtime.ReadMemStats(&after)
	return cost{wall: wall, cpu: cpu, mallocs: after.Mallocs - before.Mallocs, peak: peak}
}

// processCPU is the process's CPU time so far. On a shared virtual
// machine it moves less than wall time when a neighbour takes the CPU.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap reads the live heap every heapSampleEvery until the
// returned stop is called; stop returns the highest value read. The
// live heap is what the last garbage collection marked, so unlike the
// allocated heap it does not swing with where collections fall.
func sampleHeap() (stop func() uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			read()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		read()
		return peak
	}
}

// timeSetups runs setup n times, each from a collected heap, and
// returns how long each took. The workloads set up a few times before
// every pass, so that their set-up samples spread over the whole run
// as the passes do: one set-up takes a few tens of milliseconds, and a
// neighbour on a shared host can stretch every set-up made in the same
// second or two.
func timeSetups(n int, setup func()) []time.Duration {
	ts := make([]time.Duration, n)
	for i := range ts {
		runtime.GC()
		t0 := time.Now()
		setup()
		ts[i] = time.Since(t0)
	}
	return ts
}

// Host-speed normalisation. A shared host's speed drifts by ±15% over
// tens of seconds: in one 8-minute top10k run, the median throughput of
// successive 30-second windows spread 15% (IQR over median), and 60-second
// windows no less, so longer runs do not steady it. Every pass is
// therefore bracketed by a fixed round of work that uses no code of the
// program (hostKernel), and the pass's rate and CPU per item are scaled
// by how much slower than on the reference host that round ran. Over the
// same run the scaled throughput of 30-second windows spread 4.5%, and
// over a 6-minute run 5.5% scaled against 8.1% raw. A change to the
// program cannot move the kernel, so a change that speeds the program up
// moves the scaled figures by as much as the raw ones.
const (
	// hostKernelKeys and hostKernelRounds size one kernel round: about
	// 75 ms on the reference host.
	hostKernelKeys   = 30000
	hostKernelRounds = 6
	// hostRefWall and hostRefCPU are one kernel round's median wall and
	// CPU time over a 6-minute top10k run on the reference host (2 vCPUs
	// of a shared VM, Go 1.24, GOMAXPROCS 2): the speed the scaled figures
	// are expressed at.
	hostRefWall = 75 * time.Millisecond
	hostRefCPU  = 145 * time.Millisecond
)

// kernelNode is a node of the host kernel's working set.
type kernelNode struct {
	key  string
	next *kernelNode
	vals []int
}

// kernelSink keeps the kernel's result alive.
var kernelSink int

// hostKernel runs one round of the fixed kernel on procs goroutines, from
// a collected heap, and returns its wall and CPU time. Like the program,
// the round allocates small linked objects, formats and hashes strings and
// looks them up in maps, so it slows when the host does.
func hostKernel(procs int) (wall, cpu time.Duration) {
	runtime.GC()
	cpu0 := processCPU()
	t0 := time.Now()
	sums := make([]int, procs)
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := make(map[string]*kernelNode)
			var head *kernelNode
			for i := 0; i < hostKernelKeys; i++ {
				k := "k" + strconv.Itoa(i*7+g)
				head = &kernelNode{key: k, next: head, vals: make([]int, 1+i%7)}
				m[k] = head
			}
			for r := 0; r < hostKernelRounds; r++ {
				for i := 0; i < hostKernelKeys; i++ {
					if n := m["k"+strconv.Itoa(((i*31+r)%hostKernelKeys)*7+g)]; n != nil {
						sums[g] += len(n.vals) + len(n.key)
					}
				}
			}
		}()
	}
	wg.Wait()
	wall, cpu = time.Since(t0), processCPU()-cpu0
	for _, s := range sums {
		kernelSink += s
	}
	return wall, cpu
}

// pass is one timed repetition of a workload.
type pass struct {
	setups []time.Duration // the set-ups made before the pass
	cost   cost            // the timed section
	items  int64           // samples delivered, or lookups answered
	world  int             // which of the run's worlds the pass ran on
	// hostWall and hostCPU are the mean of the kernel rounds run just
	// before and just after the pass.
	hostWall, hostCPU time.Duration
}

// repeat runs passes until o.seconds have gone by and at least
// minPasses have run, with a host kernel round before the first pass and
// after each.
func repeat(o options, one func() pass) []pass {
	var ps []pass
	start := time.Now()
	wall, cpu := hostKernel(o.procs)
	for len(ps) < minPasses || time.Since(start).Seconds() < o.seconds {
		p := one()
		w, c := hostKernel(o.procs)
		p.hostWall, p.hostCPU = (wall+w)/2, (cpu+c)/2
		wall, cpu = w, c
		ps = append(ps, p)
	}
	return ps
}

// reportPasses sets the end-to-end metrics: each is the median over a
// world's passes, or set-ups, averaged over the worlds. Throughput and
// CPU per item are scaled to the reference host's speed; their raw
// figures and the kernel's median round go to the environment line.
func reportPasses(rep *report, ps []pass) {
	type series struct{ setup, rate, cpu, rawRate, rawCPU, allocs, heap, kernel, kernelCPU []float64 }
	worlds := map[int]*series{}
	for _, p := range ps {
		s := worlds[p.world]
		if s == nil {
			s = &series{}
			worlds[p.world] = s
		}
		for _, d := range p.setups {
			s.setup = append(s.setup, d.Seconds())
		}
		rate := float64(p.items) / p.cost.wall.Seconds()
		cpu := float64(p.cost.cpu.Microseconds()) / float64(p.items)
		s.rawRate = append(s.rawRate, rate)
		s.rawCPU = append(s.rawCPU, cpu)
		s.rate = append(s.rate, rate*p.hostWall.Seconds()/hostRefWall.Seconds())
		s.cpu = append(s.cpu, cpu*hostRefCPU.Seconds()/p.hostCPU.Seconds())
		s.allocs = append(s.allocs, float64(p.cost.mallocs)/float64(p.items))
		s.heap = append(s.heap, float64(p.cost.peak)/1e6)
		s.kernel = append(s.kernel, ms(p.hostWall))
		s.kernelCPU = append(s.kernelCPU, ms(p.hostCPU))
	}
	var setup, rate, cpu, rawRate, rawCPU, allocs, heap, kernel, kernelCPU float64
	for _, s := range worlds {
		setup += median(s.setup)
		rate += median(s.rate)
		cpu += median(s.cpu)
		rawRate += median(s.rawRate)
		rawCPU += median(s.rawCPU)
		allocs += median(s.allocs)
		heap += median(s.heap)
		kernel += median(s.kernel)
		kernelCPU += median(s.kernelCPU)
	}
	n := float64(len(worlds))
	rep.set("setup_s", "s", setup/n)
	rep.set("ref_items_per_s", "1/s", rate/n)
	rep.set("ref_cpu_us_per_item", "us", cpu/n)
	rep.set("allocs_per_item", "count", allocs/n)
	rep.set("peak_heap_mb", "MB", heap/n)
	rep.raw = map[string]float64{"items_per_s": rawRate / n, "cpu_us_per_item": rawCPU / n,
		"host_kernel_ms": kernel / n, "host_kernel_cpu_ms": kernelCPU / n}
}

func ratio(num, den int64) float64 { return float64(num) / float64(den) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
