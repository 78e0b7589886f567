// The traced suite's isolated replays: each layer's public call, run
// alone on one goroutine over the in-process traced study's own inputs.
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"geoblock/internal/cdn"
	"geoblock/internal/cluster"
	"geoblock/internal/fingerprint"
	"geoblock/internal/geo"
	"geoblock/internal/lumscan"
	"geoblock/internal/outlier"
	"geoblock/internal/pipeline"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/textfeat"
	"geoblock/internal/verdict"
	"geoblock/internal/worldgen"
)

const (
	// serveReplays cdn.Serve calls are strided over the initial snapshot.
	serveReplays = 20000
	// locateReplays geo lookups cycle over the snapshot's exits.
	locateReplays = 200000
	// unitReplays scheduler units, strided over the initial phase's
	// plan, execute alone.
	unitReplays = 64
	// codecShard is one shard's samples: 32 tasks of 3 samples.
	codecShard = 96
	// journalPhases is how many phases the isolated journal holds: as
	// many as the study journals, since replaying any one phase reads the
	// whole journal.
	journalPhases = 3
	// journalCountries countries make each of its phases, which keeps
	// the journal's per-checkpoint fsyncs few.
	journalCountries = 4
	// stageRepeats replays of each analysis stage give its median.
	stageRepeats = 3
	// verdictLookups single-goroutine lookups price Lookup alone.
	verdictLookups = 1 << 22
	// codecRepeats verdict encodes and decodes give their medians.
	codecRepeats = 50
)

// keep holds replayed results so the calls are not optimised away.
var keep int

func timeMedian(n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// stageCosts are the analysis stages replayed alone.
type stageCosts struct {
	outliers, textfeat, cluster, compile time.Duration
	classifyNS                           float64
	// classifyCalls is how many bodies the study classifies outside the
	// outlier stage (see countClassifyCalls).
	classifyCalls int64
}

// covered is the study time the stage replays account for.
func (c stageCosts) covered() time.Duration {
	classify := time.Duration(c.classifyNS * float64(c.classifyCalls))
	return c.outliers + classify + c.textfeat + c.cluster + c.compile
}

// replayStages replays the analysis stages over the study's own inputs
// and returns their costs and the recompiled verdict snapshot's ETag.
func replayStages(t *tracedStudy, procs int) (stageCosts, string, error) {
	r, w := t.res, t.world
	cls := fingerprint.NewClassifier()
	var c stageCosts
	c.outliers = timeMedian(stageRepeats, func() { foldOutliers(w, cls, r) })

	var bodies []string
	for i := range r.Initial.Samples {
		if b := r.Initial.Samples[i].Body; b != "" {
			bodies = append(bodies, b)
		}
	}
	classify := timeMedian(stageRepeats, func() {
		for _, b := range bodies {
			keep += int(cls.Classify(b))
		}
	})
	c.classifyNS = float64(classify) / float64(len(bodies))
	c.classifyCalls = countClassifyCalls(t)

	docs := make([]string, len(r.Outliers))
	for i := range r.Outliers {
		docs[i] = r.Outliers[i].Body
	}
	var vecs []textfeat.Vector
	c.textfeat = timeMedian(stageRepeats, func() { _, vecs = textfeat.FitTransform(docs) })
	opts := cluster.DefaultOptions()
	opts.Workers = procs
	c.cluster = timeMedian(stageRepeats, func() { keep += len(cluster.SingleLink(docs, vecs, opts)) })

	src := edgeSources(r, t.version, w.Cfg.Seed)[0]
	var snap *verdict.Snapshot
	var err error
	c.compile = timeMedian(stageRepeats, func() { snap, err = verdict.Compile(src) })
	if err != nil {
		return c, "", err
	}
	return c, snap.ETag(), nil
}

// countClassifyCalls counts the bodies the study classifies outside
// both the outlier stage, whose block-page tests foldOutliers already
// times, and the scan phases: the resample phase classifies its bodies
// in the sink the engine calls, so scan time holds them. Every OK
// initial body is classified once for its explicit kind, a reference
// country's once more for Table 2's recall, and a candidate pair's once
// more for its block rate.
func countClassifyCalls(t *tracedStudy) int64 {
	r := t.res
	ref := map[int16]bool{}
	for i, cc := range r.Countries {
		for _, rc := range r.RepCountries {
			if cc == rc {
				ref[int16(i)] = true
			}
		}
	}
	type pair struct {
		domain  int32
		country int16
	}
	domainIdx := make(map[string]int32, len(r.SafeDomains))
	for i, d := range r.SafeDomains {
		domainIdx[d] = int32(i)
	}
	countryIdx := make(map[geo.CountryCode]int16, len(r.Countries))
	for i, cc := range r.Countries {
		countryIdx[cc] = int16(i)
	}
	candidates := make(map[pair]bool, len(r.Candidates))
	for _, f := range r.Candidates {
		candidates[pair{domainIdx[f.DomainName], countryIdx[f.Country]}] = true
	}
	var calls int64
	for i := range r.Initial.Samples {
		sm := &r.Initial.Samples[i]
		if !sm.OK() || sm.Body == "" {
			continue
		}
		calls++
		if ref[sm.Country] {
			calls++
		}
		if candidates[pair{sm.Domain, sm.Country}] {
			calls++
		}
	}
	return calls
}

// foldOutliers replays the §4.1.2 stage through its public calls: the
// representative lengths over the reference countries, every reference
// sample's relative difference and block-page test, and a body replay
// for each outlier whose body was not retained.
func foldOutliers(w *worldgen.World, cls *fingerprint.Classifier, r *pipeline.Top10KResult) {
	ref := map[int16]bool{}
	for i, cc := range r.Countries {
		for _, rc := range r.RepCountries {
			if cc == rc {
				ref[int16(i)] = true
			}
		}
	}
	usable := func(sm *lumscan.Sample) bool { return ref[sm.Country] && sm.OK() && sm.BodyLen > 0 }
	reps := outlier.NewRepresentative()
	for i := range r.Initial.Samples {
		if sm := &r.Initial.Samples[i]; usable(sm) {
			reps.Observe(sm.Domain, int(sm.BodyLen))
		}
	}
	for i := range r.Initial.Samples {
		sm := &r.Initial.Samples[i]
		if !usable(sm) {
			continue
		}
		if _, ok := reps.RelativeDifference(sm.Domain, int(sm.BodyLen)); !ok {
			continue
		}
		if sm.Body != "" && cls.IsBlockPage(sm.Body) {
			keep++
		}
		if sm.Body != "" || !reps.IsOutlier(sm.Domain, int(sm.BodyLen), r.Config.LengthCutoff) {
			continue
		}
		if body, _, err := lumscan.Replay(w, r.SafeDomains[sm.Domain], sm.ExitIP, sm.Seed, lumscan.BrowserHeaders(), 10); err == nil {
			keep += len(body)
		}
	}
}

// replayServe prices cdn.Serve alone over the initial snapshot's
// (domain, exit, seed) mix: ns and heap allocations per call.
func replayServe(t *tracedStudy) (ns, allocs float64) {
	r, w := t.res, t.world
	header := make(http.Header)
	for k, v := range lumscan.BrowserHeaders() {
		header.Set(k, v)
	}
	samples := r.Initial.Samples
	reqs := make([]cdn.Request, 0, serveReplays)
	for i := 0; i < len(samples); i += max(1, len(samples)/serveReplays) {
		sm := &samples[i]
		d, ok := w.Lookup(r.SafeDomains[sm.Domain])
		if !ok || sm.ExitIP == 0 {
			continue
		}
		reqs = append(reqs, cdn.Request{
			Domain: d, Host: d.Name, Path: "/", Method: http.MethodGet, Scheme: "http",
			ClientIP: sm.ExitIP, Header: header, Clock: w.Clock(), SampleSeed: sm.Seed,
		})
	}
	c := measure(func() {
		for i := range reqs {
			keep += cdn.Serve(w, reqs[i]).BodyLen
		}
	})
	return float64(c.wall) / float64(len(reqs)), float64(c.mallocs) / float64(len(reqs))
}

// replayLocate prices the world's geo lookup over the snapshot's exits.
func replayLocate(t *tracedStudy) float64 {
	var ips []geo.IP
	for i := range t.res.Initial.Samples {
		if ip := t.res.Initial.Samples[i].ExitIP; ip != 0 {
			ips = append(ips, ip)
		}
	}
	db := t.world.Geo
	c := measure(func() {
		for i := 0; i < locateReplays; i++ {
			loc, _ := db.Locate(ips[i%len(ips)])
			keep += len(loc.Country)
		}
	})
	return float64(c.wall) / locateReplays
}

// replayUnits executes units of the initial phase's plan one at a time
// on one goroutine — the session and fetcher layers without the
// scheduler — and returns ns and heap allocations per sample.
func replayUnits(t *tracedStudy) (ns, allocs float64, err error) {
	r := t.res
	cfg := lumscan.DefaultConfig()
	cfg.Phase = "top10k-initial"
	cfg.Samples = r.Config.InitialSamples
	cfg.Metrics = telemetry.New()
	plan := scanner.NewPlan(r.SafeDomains, r.Countries, lumscan.CrossProduct(len(r.SafeDomains), len(r.Countries)), cfg)
	net := proxy.NewNetwork(t.world)
	n := min(unitReplays, plan.NumUnits())
	samples := 0
	c := measure(func() {
		for i := 0; i < n && err == nil; i++ {
			var res scanner.UnitResult
			res, err = plan.ExecuteUnit(context.Background(), net, i*plan.NumUnits()/n)
			samples += len(res.Samples)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return float64(c.wall) / float64(samples), float64(c.mallocs) / float64(samples), nil
}

// replayCodec encodes the initial snapshot as shard frames and decodes
// them again, returning ns per record each way.
func replayCodec(samples []lumscan.Sample) (encNS, decNS float64, err error) {
	var frames [][]byte
	records := 0
	enc := measure(func() {
		for i := 0; i < len(samples); i += codecShard {
			chunk := samples[i:min(i+codecShard, len(samples))]
			cp := runstore.Checkpoint{Seq: i / codecShard, Country: "ZZ", Tasks: len(chunk), Samples: len(chunk)}
			frames = append(frames, runstore.EncodeShardFrames(chunk, cp))
			records += len(chunk) + 1
		}
	})
	decoded := 0
	dec := measure(func() {
		for _, f := range frames {
			got, _, derr := runstore.DecodeShardFrames(f)
			if derr != nil {
				err = derr
				return
			}
			decoded += len(got)
		}
	})
	if err == nil && decoded != len(samples) {
		err = fmt.Errorf("decoded %d of %d samples", decoded, len(samples))
	}
	return float64(enc.wall) / float64(records), float64(dec.wall) / float64(records), err
}

// replayJournal journals a few countries of the study's domains into a
// fresh store, phase by phase, reopens the store and replays the
// finished phases into materializing sinks, as the study's initial
// phase does. It returns the replay's wall time per replayed record;
// the engine call that ends each replay, fetching nothing, is timed and
// left out.
func replayJournal(o options, t *tracedStudy) (float64, error) {
	dir, err := os.MkdirTemp(o.scratch, "replay-*")
	if err != nil {
		return 0, err
	}
	r := t.res
	net := proxy.NewNetwork(t.world)
	metrics := telemetry.New()
	var engine time.Duration
	scan := func() (wall time.Duration, samples int, err error) {
		st, err := runstore.Open(dir, runstore.Options{})
		if err != nil {
			return 0, 0, err
		}
		for p := 0; p < journalPhases && err == nil; p++ {
			countries := r.Countries[p*journalCountries : (p+1)*journalCountries]
			tasks := lumscan.CrossProduct(len(r.SafeDomains), len(countries))
			cfg := lumscan.DefaultConfig()
			cfg.Phase = fmt.Sprintf("perfbench-%d", p)
			cfg.Concurrency = o.procs
			cfg.Metrics = metrics
			var col lumscan.Collect
			t0 := time.Now()
			err = st.Scan(runstore.Scan{
				Key: cfg.Phase, Fingerprint: uint64(p + 1), Cfg: cfg, Sink: &col,
				Run: func(c lumscan.Config, s lumscan.Sink) error {
					e0 := time.Now()
					defer func() { engine += time.Since(e0) }()
					return lumscan.ScanStream(context.Background(), net, r.SafeDomains, countries, tasks, c, s)
				},
			})
			wall += time.Since(t0)
			samples += len(col.Samples)
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return wall, samples, err
	}
	_, written, err := scan()
	if err != nil {
		return 0, err
	}
	engine = 0
	wall, replayed, err := scan()
	if err != nil {
		return 0, err
	}
	if replayed != written {
		return 0, fmt.Errorf("journal replayed %d of %d samples", replayed, written)
	}
	return float64(wall-engine) / float64(replayed), nil
}

// replayLookups prices Lookup alone on one goroutine over the key
// stream, against the first version, and counts wrong answers.
func replayLookups(e *edge) (ns, allocs float64, bad int) {
	snap := e.holder.Load()
	ver := snap.Version() - e.base
	// Not measure: its heap sampler allocates now and then, and this
	// count must read 0 for an alloc-free Lookup.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < verdictLookups; i++ {
		k := &e.keys[i%len(e.keys)]
		if v, ok := snap.Lookup(k.domain, k.country); answer(v, ok) != k.want[ver] {
			bad++
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(wall) / verdictLookups, float64(after.Mallocs-before.Mallocs) / verdictLookups, bad
}

// replayVerdictCodec returns the median encode and decode times of the
// first version's snapshot, in µs.
func replayVerdictCodec(e *edge) (encUS, decUS float64, err error) {
	snap := e.holder.Load()
	enc := timeMedian(codecRepeats, func() { keep += len(snap.Encode()) })
	dec := timeMedian(codecRepeats, func() {
		if _, derr := verdict.Decode(e.encoded[0]); derr != nil {
			err = derr
		}
	})
	return float64(enc) / 1e3, float64(dec) / 1e3, err
}
