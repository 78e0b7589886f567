// The traced suite behind --trace 1. It runs every study path once more
// with the benchmark's own timers at the program's public seams —
// Study.Runner, the sink each scan phase hands the engine, the
// engine's transports (Config.WrapTransport), and the fabric worker's
// Client and Sleep and the coordinator's Handler — then replays each
// layer's public call over the in-process study's own inputs
// (replay.go) and reports the per-layer table. Nothing inside the
// program is traced or changed.
//
// Every traced study runs on the run's first world, and every workload
// prints the whole table: the bench.*, scan-phase, analysis and counter
// figures describe the in-process study, and each other figure comes
// from the study or replay that exercises its layer — a journaled
// study, its resume from the finished journal, and a study through a
// loopback fabric coordinator and worker.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"geoblock/internal/fabric"
	"geoblock/internal/geo"
	"geoblock/internal/lumscan"
	"geoblock/internal/pipeline"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/verdict"
	"geoblock/internal/worldgen"
)

// scanPhases are the Top-10K study's residential scan phases.
var scanPhases = []string{"country-rank", "top10k-initial", "top10k-resample"}

// countedMetrics are the study registry's counters the table reports.
var countedMetrics = []string{
	scanner.MetSinkSamples, scanner.MetFetchAttempts, scanner.MetOpenAttempts,
	scanner.MetRetries, scanner.MetRotations, scanner.MetShardsScheduled, scanner.MetSteals,
}

// seams times one study at its public seams.
type seams struct {
	phases []phaseTime
	cpu    time.Duration // process CPU time while scan phases ran
	// sinkNS and sinkN are written only from the engine's delivery
	// path, which calls the sink under its own lock.
	sinkNS time.Duration
	sinkN  int64
	rtNS   atomic.Int64
	rtN    atomic.Int64
}

type phaseTime struct {
	name       string
	start, end time.Time
}

// runner wraps inner, the engine call the study would make, timing the
// phase and the sink it is handed and, when timeTransport is set, every
// transport the fetcher builds. The fabric path leaves the transport
// alone: a func cannot cross the wire to the worker.
func (sm *seams) runner(inner pipeline.ScanRunner, timeTransport bool) pipeline.ScanRunner {
	return func(ctx context.Context, domains []string, countries []geo.CountryCode, tasks []lumscan.Task, cfg lumscan.Config, sink lumscan.Sink) error {
		if timeTransport {
			cfg.WrapTransport = func(rt http.RoundTripper) http.RoundTripper { return timedTransport{next: rt, sm: sm} }
		}
		cpu0 := processCPU()
		start := time.Now()
		err := inner(ctx, domains, countries, tasks, cfg, wrapSink(sink, sm))
		sm.phases = append(sm.phases, phaseTime{name: cfg.Phase, start: start, end: time.Now()})
		sm.cpu += processCPU() - cpu0
		return err
	}
}

func (sm *seams) scan() time.Duration {
	var d time.Duration
	for _, ph := range sm.phases {
		d += ph.end.Sub(ph.start)
	}
	return d
}

func (sm *seams) phase(name string) time.Duration {
	var d time.Duration
	for _, ph := range sm.phases {
		if ph.name == name {
			d += ph.end.Sub(ph.start)
		}
	}
	return d
}

type timedTransport struct {
	next http.RoundTripper
	sm   *seams
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.sm.rtNS.Add(int64(time.Since(t0)))
	t.sm.rtN.Add(1)
	return resp, err
}

// timedSink times every call into the sink the engine was handed. The
// wrapper offers exactly the optional channels the wrapped sink has: a
// ShardSink switches the engine into metric staging, so offering one
// the study's sink lacks would measure a different program.
type timedSink struct {
	next lumscan.Sink
	sm   *seams
}

func (t *timedSink) Emit(s lumscan.Sample) {
	t0 := time.Now()
	t.next.Emit(s)
	t.sm.sinkNS += time.Since(t0)
	t.sm.sinkN++
}

func (t *timedSink) timed(f func()) {
	t0 := time.Now()
	f()
	t.sm.sinkNS += time.Since(t0)
}

type outageSink struct{ *timedSink }

func (t outageSink) EmitOutage(o lumscan.Outage) {
	t.timed(func() { t.next.(lumscan.OutageSink).EmitOutage(o) })
}

func (t outageSink) EmitCoverage(c lumscan.Coverage) {
	t.timed(func() { t.next.(lumscan.OutageSink).EmitCoverage(c) })
}

type shardSink struct{ *timedSink }

func (t shardSink) EmitShardDone(d scanner.ShardDone) {
	t.timed(func() { t.next.(scanner.ShardSink).EmitShardDone(d) })
}

type fullSink struct{ *timedSink }

func (t fullSink) EmitOutage(o lumscan.Outage)       { outageSink(t).EmitOutage(o) }
func (t fullSink) EmitCoverage(c lumscan.Coverage)   { outageSink(t).EmitCoverage(c) }
func (t fullSink) EmitShardDone(d scanner.ShardDone) { shardSink(t).EmitShardDone(d) }

func wrapSink(next lumscan.Sink, sm *seams) lumscan.Sink {
	t := &timedSink{next: next, sm: sm}
	_, outage := next.(lumscan.OutageSink)
	_, shard := next.(scanner.ShardSink)
	switch {
	case outage && shard:
		return fullSink{t}
	case outage:
		return outageSink{t}
	case shard:
		return shardSink{t}
	}
	return t
}

// tracedStudy is one study run with its seams timed.
type tracedStudy struct {
	seams
	name       string
	start, end time.Time
	out        outcome
	version    uint64 // the emitted verdict snapshot's version
	counts     map[string]int64
	// res and world are kept only for the study the replays read.
	res   *pipeline.Top10KResult
	world *worldgen.World
}

func (t *tracedStudy) wall() time.Duration { return t.end.Sub(t.start) }

// traceStudy runs s's study with its Runner wrapped around inner.
func traceStudy(o options, name string, s *pipeline.Study, inner pipeline.ScanRunner, timeTransport, keep bool) *tracedStudy {
	t := &tracedStudy{name: name}
	s.Runner = t.runner(inner, timeTransport)
	runtime.GC()
	var snap *verdict.Snapshot
	s.VerdictOut = func(v *verdict.Snapshot) { snap = v }
	t.start = time.Now()
	res := s.RunTop10K(o.top10kConfig())
	t.end = time.Now()
	t.out = outcome{findings: len(res.Findings), samples: s.Metrics.Counter(scanner.MetSinkSamples).Value(), err: s.Err()}
	if snap != nil {
		t.out.etag, t.version = snap.ETag(), snap.Version()
	}
	t.counts = map[string]int64{}
	for _, m := range countedMetrics {
		t.counts[m] = s.Metrics.Counter(m).Value()
	}
	if keep {
		t.res, t.world = res, s.World
	}
	return t
}

// inProcessStudy traces the study on a fresh world with the engine the
// study would call itself, journaled to st when st is non-nil.
func inProcessStudy(o options, name string, st *runstore.Store, timeTransport, keep bool) *tracedStudy {
	s := pipeline.New(worldgen.Generate(worldConfig(o, 0)))
	s.Store = st
	inner := func(ctx context.Context, domains []string, countries []geo.CountryCode, tasks []lumscan.Task, cfg lumscan.Config, sink lumscan.Sink) error {
		return lumscan.ScanStream(ctx, s.Net, domains, countries, tasks, cfg, sink)
	}
	return traceStudy(o, name, s, inner, timeTransport, keep)
}

// fabricStudy traces the study through a probed coordinator and worker.
func fabricStudy(o options, pr *probe) (*tracedStudy, error) {
	wcfg := worldConfig(o, 0)
	rg, err := startRig(wcfg, pr)
	if err != nil {
		return nil, err
	}
	s := pipeline.New(worldgen.Generate(wcfg))
	s.Ctx = rg.ctx
	rg.coord.BindWorld(s.World)
	t := traceStudy(o, "fabric", s, rg.coord.RunPhase, false, false)
	if err := rg.finish(); err != nil && t.out.err == nil {
		t.out.err = err
	}
	return t, nil
}

func tracedSuite(o options, rep *report) error {
	log := &spanLog{t0: time.Now()}
	procs := float64(runtime.GOMAXPROCS(0))

	var ref outcome
	log.time("reference", func() { ref, _, _ = reference(o, rep, 0) })

	// The set-up layers, each timed alone.
	var gens, meshes []float64
	for i := 0; i < minPasses; i++ {
		t0 := time.Now()
		w := worldgen.Generate(worldConfig(o, 0))
		t1 := time.Now()
		proxy.NewNetwork(w)
		gens = append(gens, t1.Sub(t0).Seconds())
		meshes = append(meshes, time.Since(t1).Seconds())
	}
	rep.set("worldgen.generate_s", "s", median(gens))
	rep.set("proxy.new_network_s", "s", median(meshes))

	// The same study untraced, just before the traced one in the same
	// warm process, so the trace overhead compares like with like. Each
	// study, traced or not, starts from a collected heap.
	var untraced pass
	runtime.GC()
	log.time("untraced", func() { untraced = top10kPass(o, rep, ref, 0) })
	core := inProcessStudy(o, "core", nil, true, true)
	log.study(core)
	rep.checkStudy("traced in-process study", core.out, ref)

	jdir, err := os.MkdirTemp(o.scratch, "journal-*")
	if err != nil {
		return err
	}
	st, err := runstore.Open(jdir, runstore.Options{})
	if err != nil {
		return err
	}
	cold := inProcessStudy(o, "journal", st, false, false)
	closeStore(st, &cold.out)
	log.study(cold)
	rep.checkStudy("traced journaled study", cold.out, ref)
	journalBytes, err := dirBytes(jdir)
	if err != nil {
		return err
	}

	t0 := time.Now()
	if st, err = runstore.Open(jdir, runstore.Options{}); err != nil {
		return err
	}
	openWall := time.Since(t0)
	resumed := inProcessStudy(o, "resume", st, false, false)
	closeStore(st, &resumed.out)
	log.study(resumed)
	rep.checkStudy("traced resumed study", resumed.out, ref)

	var pr probe
	fab, err := fabricStudy(o, &pr)
	if err != nil {
		return err
	}
	log.study(fab)
	rep.checkStudy("traced fabric study", fab.out, ref)

	// Isolated replays over the in-process study's inputs.
	var stages stageCosts
	var compiled string
	log.time("replay/stages", func() { stages, compiled, err = replayStages(core, o.procs) })
	if err != nil {
		return err
	}
	rep.check(compiled == ref.etag, "replayed compile etag %s, the study's %s", compiled, ref.etag)
	var serveNS, serveAllocs, locateNS, unitNS, unitAllocs, encNS, decNS, replayNS float64
	log.time("replay/cdn", func() { serveNS, serveAllocs = replayServe(core) })
	log.time("replay/geo", func() { locateNS = replayLocate(core) })
	log.time("replay/units", func() { unitNS, unitAllocs, err = replayUnits(core) })
	if err != nil {
		return err
	}
	log.time("replay/codec", func() { encNS, decNS, err = replayCodec(core.res.Initial.Samples) })
	if err != nil {
		return err
	}
	log.time("replay/journal", func() { replayNS, err = replayJournal(o, core) })
	if err != nil {
		return err
	}

	srcs := edgeSources(core.res, core.version, core.world.Cfg.Seed)
	e, err := newEdge(srcs, edgeKeyStream(o.seed, core.world, srcs))
	if err != nil {
		return err
	}
	var lookupNS, lookupAllocs, encUS, decUS float64
	var bad int
	log.time("replay/lookup", func() { lookupNS, lookupAllocs, bad = replayLookups(e) })
	rep.check(bad == 0, "%d single-goroutine lookups disagree with the source entries", bad)
	log.time("replay/verdict-codec", func() { encUS, decUS, err = replayVerdictCodec(e) })
	if err != nil {
		return err
	}
	var batches, swaps []float64
	log.time("edge", func() {
		for i := 0; i < minPasses; i++ {
			st := e.run(readers(o), edgeLookups)
			rep.checkEdge(st)
			batches = append(batches, st.batchNS...)
			swaps = append(swaps, st.swapUS...)
		}
	})

	// The in-process study, and the share of each traced study the
	// table covers. Replayed samples reach a resumed study's sinks from
	// the journal before the engine runs, outside every Runner call; the
	// isolated journal replay prices them.
	unattributed := func(t *tracedStudy) float64 {
		replayed := float64(t.out.samples - t.sinkN)
		covered := t.scan().Seconds() + stages.covered().Seconds() + replayed*replayNS/1e9
		return 1 - covered/t.wall().Seconds()
	}
	wall, scan := core.wall().Seconds(), core.scan().Seconds()
	rep.set("bench.study_s", "s", wall)
	rep.set("bench.trace_overhead_frac", "ratio", wall/untraced.cost.wall.Seconds()-1)
	rep.set("bench.unattributed_frac", "ratio", unattributed(core))
	rep.set("scanner.scan_s", "s", scan)
	for _, ph := range scanPhases {
		rep.set("scanner.phase."+ph+"_s", "s", core.phase(ph).Seconds())
	}
	rep.set("scanner.cpu_util", "ratio", core.cpu.Seconds()/(scan*procs))
	rep.set("pipeline.analysis_s", "s", wall-scan)
	samples := core.counts[scanner.MetSinkSamples]
	rep.set("scanner.samples", "count", float64(samples))
	rep.set("scanner.fetch.attempts_per_sample", "ratio", ratio(core.counts[scanner.MetFetchAttempts], samples))
	rep.set("scanner.session.open_attempts", "count", float64(core.counts[scanner.MetOpenAttempts]))
	rep.set("scanner.session.retries", "count", float64(core.counts[scanner.MetRetries]))
	rep.set("scanner.session.rotations", "count", float64(core.counts[scanner.MetRotations]))
	rep.set("scanner.sched.shards", "count", float64(core.counts[scanner.MetShardsScheduled]))
	rep.set("scanner.sched.steals", "count", float64(core.counts[scanner.MetSteals]))

	// The scan path, from the in-process study and the replays.
	rep.set("proxy.roundtrip_ns", "ns", ratio(core.rtNS.Load(), core.rtN.Load()))
	rep.set("scanner.transport_busy_frac", "ratio", time.Duration(core.rtNS.Load()).Seconds()/(core.scan().Seconds()*procs))
	rep.set("scanner.sink_ns_per_sample", "ns", ratio(int64(core.sinkNS), core.sinkN))
	rep.set("cdn.serve_ns", "ns", serveNS)
	rep.set("cdn.serve_allocs", "count", serveAllocs)
	rep.set("geo.locate_ns", "ns", locateNS)
	rep.set("scanner.unit_ns_per_sample", "ns", unitNS)
	rep.set("scanner.unit_allocs_per_sample", "count", unitAllocs)

	rep.set("outlier.fold_ms", "ms", ms(stages.outliers))
	rep.set("fingerprint.classify_ns", "ns", stages.classifyNS)
	rep.set("textfeat.fit_transform_ms", "ms", ms(stages.textfeat))
	rep.set("cluster.single_link_ms", "ms", ms(stages.cluster))
	rep.set("verdict.compile_ms", "ms", ms(stages.compile))

	rep.set("runstore.journal_study_s", "s", cold.wall().Seconds())
	rep.set("runstore.journal_unattributed_frac", "ratio", unattributed(cold))
	rep.set("runstore.sink_ns_per_sample", "ns", ratio(int64(cold.sinkNS), cold.sinkN))
	rep.set("runstore.open_s", "s", openWall.Seconds())
	rep.set("runstore.resume_s", "s", resumed.wall().Seconds())
	rep.set("runstore.resume_scan_frac", "ratio", resumed.scan().Seconds()/resumed.wall().Seconds())
	rep.set("runstore.resume_unattributed_frac", "ratio", unattributed(resumed))
	rep.set("runstore.replay_ns_per_record", "ns", replayNS)
	rep.set("runstore.encode_ns_per_record", "ns", encNS)
	rep.set("runstore.decode_ns_per_record", "ns", decNS)
	rep.set("runstore.bytes_per_sample", "B", ratio(journalBytes, cold.out.samples))

	units := pr.coordMetrics.RuntimeCounter(fabric.MetCompletes).Value()
	rep.set("fabric.lease_rtt_us", "us", ratio(pr.leaseNS.Load(), pr.leaseN.Load())/1e3)
	rep.set("fabric.complete_rtt_us", "us", ratio(pr.completeNS.Load(), pr.completeN.Load())/1e3)
	rep.set("fabric.handler_us", "us", ratio(pr.handlerNS.Load(), pr.handlerN.Load())/1e3)
	rep.set("fabric.leases_per_unit", "ratio", ratio(pr.leaseN.Load(), units))
	rep.set("fabric.waits", "count", float64(pr.waits.Load()))
	rep.set("fabric.parked_s", "s", time.Duration(pr.parkedNS.Load()).Seconds())
	rep.set("fabric.complete_bytes_per_sample", "B", ratio(pr.completeBytes.Load(), fab.sinkN))
	rep.set("fabric.study_s", "s", fab.wall().Seconds())
	rep.set("fabric.unattributed_frac", "ratio", unattributed(fab))
	rep.set("fabric.overhead_ratio", "ratio", fab.wall().Seconds()/core.wall().Seconds())

	rep.set("verdict.lookup_ns", "ns", lookupNS)
	rep.set("verdict.lookup_allocs", "count", lookupAllocs)
	rep.set("verdict.encode_us", "us", encUS)
	rep.set("verdict.decode_us", "us", decUS)
	rep.set("verdict.lookup_p50_ns", "ns", percentile(batches, 50))
	rep.set("verdict.lookup_p99_ns", "ns", percentile(batches, 99))
	rep.set("verdict.lookup_batches", "count", float64(len(batches)))
	rep.set("verdict.swap_p50_us", "us", median(swaps))

	return log.write(filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)), stamp(o, rep))
}

func closeStore(st *runstore.Store, out *outcome) {
	if err := st.Close(); err != nil && out.err == nil {
		out.err = err
	}
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// spanLog keeps the traced suite's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

func (l *spanLog) add(name, parent string, start, end time.Time) {
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartMS: ms(start.Sub(l.t0)), DurMS: ms(end.Sub(start))})
}

func (l *spanLog) time(name string, f func()) {
	start := time.Now()
	f()
	l.add(name, "", start, time.Now())
}

func (l *spanLog) study(t *tracedStudy) {
	name := "study/" + t.name
	l.add(name, "", t.start, t.end)
	for _, ph := range t.phases {
		l.add("scan/"+ph.name, name, ph.start, ph.end)
	}
}

func (l *spanLog) write(path string, env environment) error {
	b, err := json.MarshalIndent(struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}{env, l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
