// The verdict-edge workload: a closed loop of lookups on a
// verdict.Holder while a writer decodes a re-encoded snapshot and swaps
// it in on a fixed schedule, alternating two versions.
package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geoblock"
	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
	"geoblock/internal/pipeline"
	"geoblock/internal/stats"
	"geoblock/internal/verdict"
	"geoblock/internal/worldgen"
)

const (
	// edgeKeyCount keys are drawn per run; readers cycle through them.
	edgeKeyCount = 1 << 16
	// requestZipfS skews the key stream over the world's domain rank.
	// Breslau et al., "Web Caching and Zipf-like Distributions: Evidence
	// and Implications" (IEEE INFOCOM 1999), fit the request popularity
	// of six web proxy traces to Zipf-like laws with exponents from 0.64
	// to 0.83; the stream takes 0.8. It is that paper's figure, assumed
	// to hold for verdict lookups: the repository has no record of who
	// asks the verdict edge about what.
	requestZipfS = 0.8
	// lookupBatch lookups are timed together: one lookup is too short
	// for the clock.
	lookupBatch = 256
	// edgeLookups is one pass's lookups across all readers.
	edgeLookups = 1 << 22
	// swapLookups is the writer's schedule: one swap per swapLookups
	// lookups answered. It is an assumed stress rate, not the program's:
	// the pipeline emits one snapshot per completed study and worldd swaps
	// once per POST /v1/snapshot, so a pass would see no swap at all. This
	// rate gives each pass 32 swaps, keeps a writer beside the readers for
	// the whole pass, and gives the swap median over a hundred swaps a run.
	// A schedule in lookups rather than in time makes every pass make the
	// same swaps however fast the host runs, so the swaps' allocations per
	// lookup do not move with host speed.
	swapLookups = 1 << 17
)

// edgeKey is one lookup of the key stream with the answer each snapshot
// version's source entries give (see answer).
type edgeKey struct {
	domain  string
	country geo.CountryCode
	want    [2]byte
}

// edge is the serving state: the Holder readers load from, and the two
// encoded versions the writer alternates between.
type edge struct {
	holder  verdict.Holder
	base    uint64 // version of the first snapshot; the second is base+1
	encoded [2][]byte
	etag    [2]string
	keys    []edgeKey
}

// newEdge compiles and encodes both versions and loads the first into
// the Holder — the edge's set-up.
func newEdge(srcs [2]verdict.Source, keys []edgeKey) (*edge, error) {
	e := &edge{base: srcs[0].Version, keys: keys}
	for v, src := range srcs {
		snap, err := verdict.Compile(src)
		if err != nil {
			return nil, err
		}
		e.encoded[v] = snap.Encode()
		e.etag[v] = snap.ETag()
	}
	first, err := verdict.Decode(e.encoded[0])
	if err != nil {
		return nil, err
	}
	e.holder.Swap(first)
	return e, nil
}

// answer encodes a lookup's result: 0 outside the universe, 1 known and
// not blocked, 2+kind blocked.
func answer(v verdict.Verdict, ok bool) byte {
	switch {
	case !ok:
		return 0
	case !v.Blocked:
		return 1
	}
	return 2 + byte(v.Kind)
}

// edgeStats is one pass of the edge loop.
type edgeStats struct {
	lookups, failed int64
	swaps, badSwaps int64
	batchNS         []float64 // mean ns per lookup of each timed batch
	swapUS          []float64 // decode, check and swap of each swap
}

// run drives one pass: readers share lookups between them while the
// writer swaps versions every swapLookups lookups, until the readers are
// done. The writer catches up on any swaps the readers got ahead of, so
// a pass makes lookups/swapLookups swaps.
func (e *edge) run(readers, lookups int) edgeStats {
	var st edgeStats
	var progress atomic.Int64
	wake := make(chan struct{}, 1)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		next := 1
		for {
			stopped := false
			select {
			case <-stop:
				stopped = true
			case <-wake:
			}
			for st.swaps+st.badSwaps < progress.Load()/swapLookups {
				t0 := time.Now()
				snap, err := verdict.Decode(e.encoded[next])
				if err != nil || snap.ETag() != e.etag[next] {
					st.badSwaps++
					continue
				}
				e.holder.Swap(snap)
				st.swapUS = append(st.swapUS, float64(time.Since(t0))/1e3)
				st.swaps++
				next ^= 1
			}
			if stopped {
				return
			}
		}
	}()

	per := lookups / readers / lookupBatch * lookupBatch
	out := make([]edgeStats, readers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = e.read(i*len(e.keys)/readers, per, &progress, wake)
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
	for _, rs := range out {
		st.lookups += rs.lookups
		st.failed += rs.failed
		st.batchNS = append(st.batchNS, rs.batchNS...)
	}
	return st
}

// read makes n lookups from key start on, in timed batches, checking
// each answer against the version of the snapshot it read. After each
// batch it adds to progress, and wakes the writer when a swap falls due.
func (e *edge) read(start, n int, progress *atomic.Int64, wake chan<- struct{}) edgeStats {
	rs := edgeStats{lookups: int64(n), batchNS: make([]float64, 0, n/lookupBatch)}
	k := start
	for done := 0; done < n; done += lookupBatch {
		t0 := time.Now()
		for j := 0; j < lookupBatch; j++ {
			key := &e.keys[k]
			snap := e.holder.Load()
			v, ok := snap.Lookup(key.domain, key.country)
			if ver := snap.Version() - e.base; ver > 1 || answer(v, ok) != key.want[ver] {
				rs.failed++
			}
			if k++; k == len(e.keys) {
				k = 0
			}
		}
		rs.batchNS = append(rs.batchNS, float64(time.Since(t0))/lookupBatch)
		if p := progress.Add(lookupBatch); p/swapLookups != (p-lookupBatch)/swapLookups {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}
	return rs
}

func (r *report) checkEdge(st edgeStats) {
	r.attempted += st.lookups + st.swaps + st.badSwaps
	r.failed += st.failed + st.badSwaps
	if st.failed+st.badSwaps > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %d of %d lookups and %d of %d swaps wrong\n",
			st.failed, st.lookups, st.badSwaps, st.swaps+st.badSwaps)
	}
}

func readers(o options) int { return max(1, o.procs-1) }

// edgeSources builds the two versions the writer alternates: the
// study's confirmed findings (the snapshot the study emitted itself)
// and every candidate pair that showed a block page at least once — the
// matrix as it would read with no agreement threshold.
func edgeSources(r *pipeline.Top10KResult, version, seed uint64) [2]verdict.Source {
	entries := func(fs []pipeline.Finding) []verdict.Entry {
		out := make([]verdict.Entry, len(fs))
		for i, f := range fs {
			out[i] = verdict.Entry{Domain: f.DomainName, Country: f.Country, Kind: f.Kind}
		}
		return out
	}
	a := verdict.Source{Version: version, Seed: seed, Domains: r.SafeDomains, Countries: r.Countries, Entries: entries(r.Findings)}
	b := a
	b.Version = version + 1
	b.Entries = entries(r.Candidates)
	if len(b.Entries) == len(a.Entries) && len(b.Entries) > 0 {
		// No candidate was eliminated; drop one so the versions differ.
		b.Entries = b.Entries[1:]
	}
	return [2]verdict.Source{a, b}
}

// edgeKeyStream draws the seeded key stream. Domains are drawn over the
// world's whole Top-10K list, skewed by rank (requestZipfS); the ones
// the study filtered out as risky or on the Citizen Lab list are not in
// the snapshot's universe and must come back unknown, so the unknown
// share follows from the world's own filter rather than a constant.
// Countries are weighted by their residential exit inventory
// (geo.Country.LuminatiExits), the world's stand-in for where
// residential users are.
func edgeKeyStream(seed uint64, w *worldgen.World, srcs [2]verdict.Source) []edgeKey {
	type pair struct {
		domain  string
		country geo.CountryCode
	}
	var kinds [2]map[pair]blockpage.Kind
	for v, src := range srcs {
		kinds[v] = make(map[pair]blockpage.Kind, len(src.Entries))
		for _, en := range src.Entries {
			kinds[v][pair{en.Domain, en.Country}] = en.Kind
		}
	}
	known := make(map[string]bool, len(srcs[0].Domains))
	for _, d := range srcs[0].Domains {
		known[d] = true
	}
	countries := srcs[0].Countries
	exits := make([]float64, len(countries))
	for i, cc := range countries {
		if c, ok := w.Geo.Country(cc); ok {
			exits[i] = float64(c.LuminatiExits)
		}
	}
	top := w.Top10K()
	rng := stats.NewRNG(seed).Fork("perfbench-edge-keys")
	zipf := stats.NewZipf(rng, len(top), requestZipfS)
	keys := make([]edgeKey, edgeKeyCount)
	for i := range keys {
		k := &keys[i]
		k.domain = top[zipf.Rank()-1].Name
		k.country = countries[rng.WeightedChoice(exits)]
		if !known[k.domain] {
			continue
		}
		for v := range kinds {
			k.want[v] = 1
			if kind, ok := kinds[v][pair{k.domain, k.country}]; ok {
				k.want[v] = 2 + byte(kind)
			}
		}
	}
	return keys
}

// freshKeys copies a key stream into new memory, names included: each
// distinct domain and country string is cloned once, so the copy still
// holds as many distinct strings as the original.
func freshKeys(keys []edgeKey) []edgeKey {
	clones := map[string]string{}
	clone := func(s string) string {
		c, ok := clones[s]
		if !ok {
			c = strings.Clone(s)
			clones[s] = c
		}
		return c
	}
	out := make([]edgeKey, len(keys))
	for i, k := range keys {
		out[i] = edgeKey{domain: clone(k.domain), country: geo.CountryCode(clone(string(k.country))), want: k.want}
	}
	return out
}

// runEdge serves each of the run's worlds, and its passes cycle through
// them, so that, as on top10k, one world's snapshot and key stream do
// not set the run's figures. Each pass serves from an edge built afresh,
// its key stream copied anew: how one edge's memory happens to be laid
// out moves its lookup rate by up to a fifth on a shared host, and a
// fresh edge per pass averages that out over the run.
func runEdge(o options, rep *report) error {
	srcs := make([][2]verdict.Source, worldsPerRun)
	keys := make([][]edgeKey, worldsPerRun)
	etags := make([]string, worldsPerRun)
	for w := range srcs {
		ref, sys, r := reference(o, rep, w)
		snap := sys.Verdicts()
		if snap == nil {
			return fmt.Errorf("the reference study of world %d emitted no verdict snapshot", w)
		}
		srcs[w] = edgeSources(r, snap.Version(), sys.World.Cfg.Seed)
		keys[w] = edgeKeyStream(o.seed, sys.World, srcs[w])
		etags[w] = ref.etag
	}

	// Set-up is what an edge daemon does before serving: build the world
	// and mesh, then compile, encode and load the snapshots. The study the
	// snapshots come from is the workload's input, made once. A pass is
	// a fraction of a second, so one set-up before each is enough.
	n := 0
	var err error
	ps := repeat(o, func() pass {
		w := n % worldsPerRun
		n++
		wcfg := worldConfig(o, w)
		fresh := freshKeys(keys[w])
		var e *edge
		setups := timeSetups(1, func() {
			geoblock.New(geoblock.Options{World: &wcfg})
			var eerr error
			if e, eerr = newEdge(srcs[w], fresh); eerr != nil {
				err = eerr
			}
		})
		if e == nil {
			return pass{setups: setups, world: w}
		}
		rep.check(e.etag[0] == etags[w], "world %d: edge snapshot etag %s, the study's %s", w, e.etag[0], etags[w])
		var st edgeStats
		p := pass{setups: setups, cost: measure(func() { st = e.run(readers(o), edgeLookups) }), world: w}
		rep.checkEdge(st)
		p.items = st.lookups
		return p
	})
	if err != nil {
		return err
	}
	reportPasses(rep, ps)
	return nil
}
