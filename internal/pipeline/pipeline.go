// Package pipeline is the paper's semi-automated geoblocking detection
// system, end to end: safe-list filtering, the initial Lumscan snapshot,
// page-length outlier extraction, TF-IDF clustering with (simulated)
// manual cluster labeling, signature-driven identification of candidate
// pairs, targeted resampling, and the 80%-agreement confirmation step —
// for both the Alexa Top-10K study (§4) and the Top-1M CDN-customer
// study (§5), plus the §3.1 VPS exploration and the interactive
// Lumscan probe (Probe).
//
// The two studies share one flow: one snapshot scan (initialScan),
// whose bodies are classified once, one reachability count, and one
// confirmation pass (confirm) that resamples every pair that served an
// explicit block page and keeps it when enough of its samples agree.
// Every scan runs through runScan, which journals and traces it under
// its journal key (top10k-initial, explore-verify) and records an
// abort under that same key, so Study.Err, the journal and the trace
// name a phase alike.
package pipeline

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"geoblock/internal/blockpage"
	"geoblock/internal/consistency"
	"geoblock/internal/fingerprint"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/verdict"
	"geoblock/internal/worldgen"
)

// Study bundles the measurement infrastructure: the world under
// measurement, the residential proxy mesh, and the block-page
// classifier (which, in the paper's chronology, exists because an
// earlier run of the clustering stage discovered the signatures).
type Study struct {
	World      *worldgen.World
	Net        *proxy.Network
	Classifier *fingerprint.Classifier
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Ctx, when non-nil, cancels the study's scans (a cancelled study
	// returns partial results). Nil means context.Background().
	Ctx context.Context
	// Metrics receives counters and histograms from every scan the
	// study runs. New installs a virtual-clock registry (deterministic
	// snapshots); scans read no clock, and per-stage timing lives in
	// the trace. Never nil after New.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives wide events from every phase the
	// study runs: each scan invocation gets its own span context
	// (derived from the tracer's root and the journal key, so repeated
	// phases stay distinct) and a closing "pipeline/scan" event, and
	// each study and analysis stage a "pipeline/stage" event. Nil means
	// tracing off — zero overhead on the scan hot path.
	Trace *trace.Tracer
	// Store, when non-nil, journals every scan phase the study runs and
	// resumes interrupted phases from their checkpoints: completed
	// shards replay from disk instead of refetching. The journal must
	// come from the same study configuration (world seed and inputs) —
	// each phase's fingerprint is validated on resume.
	Store *runstore.Store
	// Runner, when non-nil, replaces the in-process engine for every
	// residential scan phase — the distributed fabric's coordinator
	// plugs in here. VPS phases always run in-process (the datacenter
	// fleet is cheap and local). The runner composes with Store: it runs
	// under the journal exactly where scanner.Run would.
	Runner ScanRunner
	// VerdictOut, when non-nil, receives the verdict snapshot compiled
	// from each completed study's confirmed findings — the serving
	// layer's feed. Called synchronously at the end of the study, after
	// the findings tables are final.
	VerdictOut func(*verdict.Snapshot)

	// phaseSeq counts scan invocations per phase name, so a phase run
	// again in one study (a study method called twice) gets a distinct
	// journal key.
	// Study execution order is deterministic, so the keys are stable
	// across runs — which is what lets a resumed study find its work.
	phaseSeq map[string]int

	// scanErr holds the first scan abort the study observed (in
	// practice: ctx cancellation). Partial results are still returned —
	// that is the documented contract — but the abort stays visible
	// through Err instead of silently truncating the tables.
	scanErr error
}

// ScanRunner executes one residential scan phase. Its contract is the
// engine's: deliver samples to sink in canonical order, byte-identical
// to scanner.Run over the same inputs.
type ScanRunner func(ctx context.Context, domains []string, countries []geo.CountryCode, tasks []scanner.Task, cfg scanner.Config, sink scanner.Sink) error

// New assembles a study over w with a fresh proxy mesh.
func New(w *worldgen.World) *Study {
	return &Study{
		World:      w,
		Net:        proxy.NewNetwork(w),
		Classifier: fingerprint.NewClassifier(),
		Metrics:    telemetry.New(),
	}
}

// scanConfig is DefaultConfig wired to the study's registry and
// tracer.
func (s *Study) scanConfig(phase string) scanner.Config {
	cfg := scanner.DefaultConfig()
	cfg.Phase = phase
	cfg.Metrics = s.Metrics
	cfg.Trace = s.Trace
	return cfg
}

// snapshot exports the study's telemetry in its deterministic view —
// the form study results carry, so a result is still a pure function
// of the study's inputs.
func (s *Study) snapshot() *telemetry.Snapshot {
	return s.Metrics.Snapshot().Deterministic()
}

func (s *Study) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
	}
}

func (s *Study) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// noteScanErr records a scan invocation that returned an error — a
// cancelled context, a severed journal, a failed fabric phase — under
// its journal key. The phase's partial output is kept (the streaming
// sinks have already folded it), but the abort is logged and retained
// so callers can distinguish a truncated study from a complete one.
func (s *Study) noteScanErr(key string, err error) {
	if err == nil {
		return
	}
	if s.scanErr == nil {
		s.scanErr = &PhaseError{Phase: key, Err: err}
	}
	s.logf("%s: scan aborted: %v", key, err)
}

// PhaseError is the error Study.Err reports: the underlying scan abort
// tagged with the journal key of the scan it struck (top10k-resample,
// explore-verify), the same name the journal and the trace give that
// scan. Unwrap preserves errors.Is matching on the cause
// (runstore.ErrSevered, context.Canceled, ...).
type PhaseError struct {
	Phase string
	Err   error
}

func (e *PhaseError) Error() string { return fmt.Sprintf("phase %s: %v", e.Phase, e.Err) }
func (e *PhaseError) Unwrap() error { return e.Err }

// Err reports the first scan abort the study observed, or nil if every
// phase ran to completion. A non-nil Err means the study's results are
// a prefix of the full run.
func (s *Study) Err() error { return s.scanErr }

// emitVerdicts compiles the confirmed findings over the studied
// universe into an immutable verdict snapshot and hands it to
// VerdictOut. Versioned by the world's policy clock at completion, so
// successive studies of a drifting world produce ordered snapshots.
func (s *Study) emitVerdicts(domains []string, countries []geo.CountryCode, findings []Finding) {
	if s.VerdictOut == nil {
		return
	}
	src := verdict.Source{
		Version:   uint64(s.World.Clock()),
		Seed:      s.World.Cfg.Seed,
		Domains:   domains,
		Countries: countries,
	}
	for _, f := range findings {
		src.Entries = append(src.Entries, verdict.Entry{
			Domain: f.DomainName, Country: f.Country, Kind: f.Kind,
		})
	}
	snap, err := verdict.Compile(src)
	if err != nil {
		// Findings are drawn from the studied universe, so Compile can
		// only fail on a pipeline bug; surface it rather than serve stale.
		s.logf("verdict: snapshot compile failed: %v", err)
		return
	}
	s.logf("verdict: snapshot v%d, %d blocked pairs over %d domains × %d countries",
		snap.Version(), snap.Blocked(), len(snap.Domains()), len(snap.Countries()))
	s.VerdictOut(snap)
}

// logCoverage reports a degraded scan phase: which countries were lost
// and how far short of the requested coverage the run fell. A full run
// stays quiet.
func (s *Study) logCoverage(phase string, outages []scanner.Outage, cov scanner.Coverage) {
	if len(outages) == 0 {
		return
	}
	for _, o := range outages {
		s.logf("%s: outage %s (%s): %d/%d shards, %d tasks lost",
			phase, o.Country, o.Reason, o.Shards, o.ShardsTotal, o.Tasks)
	}
	s.logf("%s: coverage %d/%d countries (%d tasks lost)",
		phase, cov.Attained, cov.Requested, cov.TasksLost)
}

// Finding is one confirmed geoblocking observation: a (domain, country)
// pair that served an explicit geoblock page in at least the threshold
// fraction of its samples.
type Finding struct {
	DomainName string
	Rank       int
	Country    geo.CountryCode
	Kind       blockpage.Kind
	Rate       consistency.Rate
}

// pairKey identifies a (domain, country) pair within one scan result.
type pairKey struct {
	domain  int32
	country int16
}

// candidate accumulates the evidence for one pair during resampling.
type candidate struct {
	kind blockpage.Kind
	rate consistency.Rate
}

// explicitKind reports the explicit geoblock page class of a body, or
// KindNone.
func (s *Study) explicitKind(body string) blockpage.Kind {
	if body == "" {
		return blockpage.KindNone
	}
	k, explicit := s.Classifier.IsExplicitGeoblock(body)
	if !explicit {
		return blockpage.KindNone
	}
	return k
}

// measurableCountries returns the study's country set (the 177 of
// §4.1.1).
func (s *Study) measurableCountries() []geo.CountryCode {
	return s.World.Geo.Measurable()
}

// pairRateSink returns a streaming sink folding samples into per-pair
// rates for the given per-pair expected kind. A sample counts as a
// response when it carried any HTTP status; it counts as a block when
// its body classifies to the pair's kind. Each sample is digested and
// dropped — bodies included — so a resample pass streamed through this
// sink never materializes a Result.
func (s *Study) pairRateSink(kinds map[pairKey]blockpage.Kind, into map[pairKey]*candidate) scanner.SinkFunc {
	return func(sm scanner.Sample) {
		key := pairKey{sm.Domain, sm.Country}
		kind, tracked := kinds[key]
		if !tracked {
			return
		}
		c := candidateFor(into, key, kind)
		if !sm.OK() {
			return
		}
		c.rate.Responses++
		if sm.Body != "" && s.Classifier.Classify(sm.Body) == kind {
			c.rate.Blocks++
		}
	}
}

// candidateFor returns key's candidate in into, creating it for kind
// at the pair's first sample.
func candidateFor(into map[pairKey]*candidate, key pairKey, kind blockpage.Kind) *candidate {
	c := into[key]
	if c == nil {
		c = &candidate{kind: kind}
		into[key] = c
	}
	return c
}

// collectPairRates folds the initial snapshot into per-pair rates the
// way pairRateSink folds a stream, reading each body's class from the
// snapshot's classification pass. A dense domain × country table skips
// the untracked samples, so only a tracked pair's samples reach a map.
func collectPairRates(res *scanner.Result, classes bodyKinds, kinds map[pairKey]blockpage.Kind, into map[pairKey]*candidate) {
	nc := len(res.Countries)
	tracked := make([]bool, len(res.Domains)*nc)
	for key := range kinds {
		tracked[int(key.domain)*nc+int(key.country)] = true
	}
	for i := range res.Samples {
		sm := &res.Samples[i]
		if !tracked[int(sm.Domain)*nc+int(sm.Country)] {
			continue
		}
		key := pairKey{sm.Domain, sm.Country}
		c := candidateFor(into, key, kinds[key])
		if !sm.OK() {
			continue
		}
		c.rate.Responses++
		if classes.at(i) == c.kind {
			c.rate.Blocks++
		}
	}
}

// bodyKinds is a snapshot's classification pass: the page class of
// each sample's body, one byte per sample, KindNone where the sample is
// not OK or kept no body. Every stage that asks what a snapshot body is
// reads it here instead of classifying the body again.
type bodyKinds []uint8

func (b bodyKinds) at(i int) blockpage.Kind { return blockpage.Kind(b[i]) }

// classifyBodies runs the classification pass over res, its bodies
// split evenly across up to workers goroutines.
func (s *Study) classifyBodies(res *scanner.Result, workers int) bodyKinds {
	classes := make(bodyKinds, len(res.Samples))
	var bodies []int32
	for i := range res.Samples {
		if sm := &res.Samples[i]; sm.OK() && sm.Body != "" {
			bodies = append(bodies, int32(i))
		}
	}
	workers = max(1, min(workers, len(bodies)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		part := bodies[w*len(bodies)/workers : (w+1)*len(bodies)/workers]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range part {
				classes[i] = uint8(s.Classifier.Classify(res.Samples[i].Body))
			}
		}()
	}
	wg.Wait()
	return classes
}

// initialScan runs a study's <study>-initial snapshot: samples per
// pair over every (domain, country), collected in full because every
// later stage reads it, with its bodies classified once by
// concurrency workers.
func (s *Study) initialScan(study string, domains []string, countries []geo.CountryCode, samples, concurrency int) (*scanner.Result, bodyKinds) {
	phase := study + "-initial"
	cfg := s.scanConfig(phase)
	cfg.Samples = samples
	cfg.Concurrency = concurrency
	col := scanner.Collect{Samples: make([]scanner.Sample, 0, len(domains)*len(countries)*max(samples, 1))}
	s.scanStream(phase, cfg, domains, countries, scanner.CrossProduct(len(domains), len(countries)), &col)
	res := &scanner.Result{Domains: domains, Countries: countries,
		Samples: col.Samples, Outages: col.Outages, Coverage: col.Coverage}
	s.logf("%s: initial snapshot %d samples", study, len(res.Samples))
	s.logCoverage(study, res.Outages, res.Coverage)
	return res, s.classifyBodies(res, concurrency)
}

// reachability computes the §4.1.1 reachability numbers of a snapshot:
// domains that never produced a response, and the subset the proxy
// platform itself refused (X-Luminati-Error).
func reachability(res *scanner.Result) (never, luminati int) {
	ok := make([]bool, len(res.Domains))
	lum := make([]bool, len(res.Domains))
	for i := range res.Samples {
		sm := &res.Samples[i]
		if sm.OK() {
			ok[sm.Domain] = true
		}
		if sm.Err == scanner.ErrLuminati {
			lum[sm.Domain] = true
		}
	}
	for d := range ok {
		if ok[d] {
			continue
		}
		never++
		if lum[d] {
			luminati++
		}
	}
	return never, luminati
}

// explicitPairs maps every pair that served an explicit geoblock page
// in the snapshot to that page's kind: the candidates the confirmation
// pass resamples.
func explicitPairs(res *scanner.Result, classes bodyKinds) map[pairKey]blockpage.Kind {
	kinds := make(map[pairKey]blockpage.Kind)
	for i := range res.Samples {
		if k := classes.at(i); k.Explicit() {
			sm := &res.Samples[i]
			kinds[pairKey{sm.Domain, sm.Country}] = k
		}
	}
	return kinds
}

// confirm is the step both studies end in (§4.1.4, §5.2.1): sample
// every candidate pair again in the <study>-resample scan, and keep it
// when its explicit page shows in at least threshold of the snapshot's
// and the resample's responses together. It returns the confirmed
// findings and every candidate's agreement rate, both in pair order,
// and the number of candidates the threshold eliminated.
func (s *Study) confirm(study string, res *scanner.Result, classes bodyKinds, ranks []int, kinds map[pairKey]blockpage.Kind, samples int, threshold float64, concurrency int) (findings []Finding, rates []float64, eliminated int) {
	phase := study + "-resample"
	cfg := s.scanConfig(phase)
	cfg.Samples = samples
	cfg.Concurrency = concurrency

	// The pass streams straight into the rate fold: each pair is
	// digested as its shard completes and its bodies dropped, so the
	// pass never holds a materialized Result.
	cands := make(map[pairKey]*candidate, len(kinds))
	collectPairRates(res, classes, kinds, cands)
	s.scanStream(phase, cfg, res.Domains, res.Countries, taskList(kinds), s.pairRateSink(kinds, cands))

	for _, key := range sortedPairs(cands) {
		c := cands[key]
		rates = append(rates, c.rate.Frac())
		if !c.rate.Confirmed(threshold) {
			eliminated++
			continue
		}
		findings = append(findings, Finding{
			DomainName: res.Domains[key.domain],
			Rank:       ranks[key.domain],
			Country:    res.Countries[key.country],
			Kind:       c.kind,
			Rate:       c.rate,
		})
	}
	return findings, rates, eliminated
}

// sortedPairs returns m's pairs in domain-major order, the order every
// per-pair output lists them in.
func sortedPairs[V any](m map[pairKey]V) []pairKey {
	keys := make([]pairKey, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].domain != keys[j].domain {
			return keys[i].domain < keys[j].domain
		}
		return keys[i].country < keys[j].country
	})
	return keys
}

// taskList returns m's pairs as scan tasks in the engine's
// country-major order.
func taskList[V any](m map[pairKey]V) []scanner.Task {
	tasks := make([]scanner.Task, 0, len(m))
	for key := range m {
		tasks = append(tasks, scanner.Task{Domain: key.domain, Country: key.country})
	}
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Country != tasks[j].Country {
			return tasks[i].Country < tasks[j].Country
		}
		return tasks[i].Domain < tasks[j].Domain
	})
	return tasks
}

// rankCountriesByBlocking runs the auxiliary pre-experiment of §4.1.2:
// sample the NS-detectable Cloudflare and Akamai customers within the
// safe set from every country and rank countries by how many 403s come
// back. The top of that ranking selects the reference countries for
// representative page lengths.
func (s *Study) rankCountriesByBlocking(safeDomains []string, safeRanks []int, countries []geo.CountryCode, samples int) []geo.CountryCode {
	var auxDomains []string
	for i, rank := range safeRanks {
		d := s.World.DomainAt(rank)
		if d != nil && d.NSDetectable {
			auxDomains = append(auxDomains, safeDomains[i])
		}
		if len(auxDomains) >= 300 {
			break
		}
	}
	if len(auxDomains) == 0 {
		// Degenerate small worlds: fall back to a slice of the safe set.
		n := len(safeDomains)
		if n > 100 {
			n = 100
		}
		auxDomains = safeDomains[:n]
	}

	cfg := s.scanConfig("country-rank")
	cfg.Samples = samples
	cfg.Bodies = scanner.BodyNone
	counts := make([]int, len(countries))
	s.scanStream("country-rank", cfg, auxDomains, countries,
		scanner.CrossProduct(len(auxDomains), len(countries)),
		scanner.SinkFunc(func(sm scanner.Sample) {
			if sm.OK() && sm.Status == 403 {
				counts[sm.Country]++
			}
		}))
	idx := make([]int, len(countries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return countries[idx[a]] < countries[idx[b]]
	})
	out := make([]geo.CountryCode, len(countries))
	for i, j := range idx {
		out[i] = countries[j]
	}
	return out
}

// studyRNG derives the deterministic RNG for sampling decisions.
func (s *Study) studyRNG(label string) *stats.RNG {
	return stats.NewRNG(s.World.Cfg.Seed).Fork("pipeline").Fork(label)
}

// phaseKey returns the journal key for the next invocation of the
// named phase: the name itself the first time, name#k for repeats.
func (s *Study) phaseKey(name string) string {
	if s.phaseSeq == nil {
		s.phaseSeq = map[string]int{}
	}
	k := s.phaseSeq[name]
	s.phaseSeq[name]++
	if k == 0 {
		return name
	}
	return name + "#" + strconv.Itoa(k)
}

// scanFingerprint digests a scan invocation's identity for the
// journal: the world (seed and scale), the journal key and phase, every
// domain name and country (or VPS) code in order, the task count, and
// the knobs that shape samples — Samples, Retries, Bodies and the
// header set — but never Concurrency, which a resumed run is free to
// change. A journal directory reused with any other input, a same-size
// domain or country list included, fails this check instead of
// splicing foreign samples.
func (s *Study) scanFingerprint(key string, cfg scanner.Config, domains []string, groups []geo.CountryCode, tasks int) uint64 {
	h := stats.Hash("geoblock-scan")
	h = stats.Mix64(h ^ s.World.Cfg.Seed)
	h = stats.Mix64(h ^ math.Float64bits(s.World.Cfg.Scale))
	h = stats.Mix64(h ^ stats.Hash(key))
	h = stats.Mix64(h ^ stats.Hash(cfg.Phase))
	for _, d := range domains {
		h = stats.Mix64(h ^ stats.Hash(d))
	}
	h = stats.Mix64(h ^ uint64(len(domains)))
	for _, c := range groups {
		h = stats.Mix64(h ^ stats.Hash(string(c)))
	}
	h = stats.Mix64(h ^ uint64(len(groups))<<16)
	h = stats.Mix64(h ^ uint64(tasks)<<32)
	h = stats.Mix64(h ^ uint64(cfg.Samples)<<48)
	h = stats.Mix64(h ^ uint64(cfg.Retries) ^ uint64(cfg.Bodies)<<8)
	return scanner.MixHeaders(h, cfg.Headers)
}

// traceScan pins the invocation's scan context onto cfg — the root →
// pipeline-phase → scan-phase derivation that keys every event the
// scan records, unique per invocation because key is — and returns the
// closer that records the phase's "pipeline/scan" event.
func (s *Study) traceScan(key string, cfg *scanner.Config) func(error) {
	pctx := s.Trace.Root().Child("pipeline/"+key, 0)
	cfg.TraceCtx = pctx.Child("scan/"+cfg.Phase, 0)
	return s.traceStep(pctx, "pipeline/scan", key)
}

// stage opens one study or analysis stage (top10k, outliers, ...) and
// returns the closer that records its "pipeline/stage" event. The
// outcome is "aborted" when the study has lost a phase by then (Err),
// since the stage then worked on a prefix of the data. The stage's
// span derives from its name on its own "stage/" edge — never from a
// journal key — so a stage named like a scan (the explore study and
// its first VPS scan) neither renumbers the scan's journal key nor
// shares its span ID.
func (s *Study) stage(name string) func() {
	done := s.traceStep(s.Trace.Root().Child("stage/"+name, 0), "pipeline/stage", name)
	return func() { done(s.Err()) }
}

// traceStep returns the closer that records one pipeline step's event
// (name) at ctx under the root span: phase, outcome, and the step's
// wall extent. A no-op closure when the study is not tracing.
func (s *Study) traceStep(ctx trace.SpanCtx, name, phase string) func(error) {
	if s.Trace == nil {
		return func(error) {}
	}
	wall0 := s.Trace.Now()
	return func(err error) {
		wall := s.Trace.Now()
		ev := trace.NewEvent(ctx, name)
		ev.Parent = s.Trace.Root().Span
		ev.Phase = phase
		if err == nil {
			ev.Outcome = "ok"
		} else {
			ev.Outcome = "aborted"
		}
		ev.WallNS = wall0
		ev.WallDurNS = wall - wall0
		s.Trace.Record(ev)
	}
}

// scanStream is the study's one residential-scan entry point: the
// fabric's runner when one is attached, the in-process engine
// otherwise. name keys the journal; it is usually cfg.Phase.
func (s *Study) scanStream(name string, cfg scanner.Config, domains []string, countries []geo.CountryCode, tasks []scanner.Task, sink scanner.Sink) {
	s.runScan(name, cfg, domains, countries, len(tasks), sink, func(cfg scanner.Config, sink scanner.Sink) error {
		if s.Runner != nil {
			return s.Runner(s.ctx(), domains, countries, tasks, cfg, sink)
		}
		return scanner.Run(s.ctx(), s.Net, domains, countries, tasks, cfg, sink)
	})
}

// scanVPSStream is scanStream for the datacenter engine.
func (s *Study) scanVPSStream(name string, cfg scanner.Config, fleet []*proxy.VPS, domains []string, tasks []scanner.Task, sink scanner.Sink) {
	codes := make([]geo.CountryCode, len(fleet))
	for i, v := range fleet {
		codes[i] = v.Country
	}
	s.runScan(name, cfg, domains, codes, len(tasks), sink, func(cfg scanner.Config, sink scanner.Sink) error {
		return scanner.RunVPS(s.ctx(), fleet, domains, tasks, cfg, sink)
	})
}

// runScan wraps one engine invocation in the study's tracing and
// journaling: it runs the engine directly when no journal is attached,
// and through Store.Scan — journaling live work, replaying committed
// work — otherwise. groups lists the countries or VPS countries the
// tasks index. An abort is recorded under the invocation's journal key,
// so Err, the journal and the trace all name the phase the same way.
func (s *Study) runScan(name string, cfg scanner.Config, domains []string, groups []geo.CountryCode, tasks int, sink scanner.Sink, run func(scanner.Config, scanner.Sink) error) {
	key := s.phaseKey(name)
	traceDone := s.traceScan(key, &cfg)
	var err error
	if s.Store == nil {
		err = run(cfg, sink)
	} else {
		err = s.Store.Scan(runstore.Scan{
			Key:         key,
			Fingerprint: s.scanFingerprint(key, cfg, domains, groups, tasks),
			Cfg:         cfg,
			Sink:        sink,
			Run:         run,
		})
	}
	traceDone(err)
	s.noteScanErr(key, err)
}

// Probe is the Lumscan probe (§3.2) as a study: samples per pair of
// every domain from every country, sent with headers (nil keeps the
// browser set) and streamed to sink in canonical order. It runs as
// every study phase does — journaled, fabric-routed and traced — under
// the journal key and phase "cli".
func (s *Study) Probe(domains []string, countries []geo.CountryCode, samples int, headers map[string]string, sink scanner.Sink) {
	cfg := s.scanConfig("cli")
	cfg.Samples = samples
	if headers != nil {
		cfg.Headers = headers
	}
	s.scanStream("cli", cfg, domains, countries, scanner.CrossProduct(len(domains), len(countries)), sink)
}
