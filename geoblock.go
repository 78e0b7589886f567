// Package geoblock is a full reproduction of "403 Forbidden: A Global
// View of CDN Geoblocking" (McDonald et al., IMC 2018) as a Go library:
// a deterministic simulated Internet — CDN edges, a residential proxy
// mesh, national censorship, GeoIP — plus the paper's semi-automated
// detection system (Lumscan scanning, page-length outlier extraction,
// TF-IDF clustering, fingerprinting, resampling with the 80% agreement
// threshold) and analyzers for every table and figure in the paper's
// evaluation.
//
// Quick start:
//
//	sys := geoblock.New(geoblock.Options{Scale: 0.1})
//	res := sys.RunTop10K(geoblock.Top10KConfig{})
//	for _, f := range res.Findings {
//	    fmt.Printf("%s blocked in %s by %v\n", f.DomainName, f.Country, f.Kind)
//	}
//
// The Example functions (ExampleSystem_RunTop10K and the rest) show
// the facade with output that go test checks. The heavy lifting lives
// in the internal packages (see DESIGN.md for the map); this package
// is the stable entry point that the command-line tools and the
// benchmark share.
package geoblock

import (
	"context"

	"geoblock/internal/cfrules"
	"geoblock/internal/fabric"
	"geoblock/internal/geo"
	"geoblock/internal/ooni"
	"geoblock/internal/pipeline"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/verdict"
	"geoblock/internal/worldgen"
)

// Re-exported result and config types, so callers only import this
// package.
type (
	// Top10KConfig tunes the §4 study; the zero value uses the paper's
	// parameters (3 initial samples, 20 confirmation samples, 80%
	// threshold, 20 reference countries, 30% length cutoff).
	Top10KConfig = pipeline.Top10KConfig
	// Top10KResult is the §4 study output.
	Top10KResult = pipeline.Top10KResult
	// Top1MConfig tunes the §5 study.
	Top1MConfig = pipeline.Top1MConfig
	// Top1MResult is the §5 study output.
	Top1MResult = pipeline.Top1MResult
	// Finding is one confirmed geoblocking observation.
	Finding = pipeline.Finding
	// ExploreResult is the §3.1 exploration output.
	ExploreResult = pipeline.ExploreResult
	// ConsistencyExperiment is the Figure 1/3 machinery.
	ConsistencyExperiment = pipeline.ConsistencyExperiment
	// OONICorpus is a synthesized censorship-measurement corpus.
	OONICorpus = ooni.Corpus
	// OONIAnalysis is the §7.1 confound readout.
	OONIAnalysis = ooni.Analysis
	// CloudflareRules is the §6 firewall-rules snapshot.
	CloudflareRules = cfrules.Dataset
	// WorldConfig exposes every world-calibration knob.
	WorldConfig = worldgen.Config
	// TimeoutResult is the §7.3 timeout-geoblocking extension output.
	TimeoutResult = pipeline.TimeoutResult
	// AppLayerResult is the §7.3 application-layer extension output.
	AppLayerResult = pipeline.AppLayerResult
	// RegionalFinding is one §4.2.2-style region-granular observation.
	RegionalFinding = pipeline.RegionalFinding
	// CountryCode is an ISO 3166-1 alpha-2 country code.
	CountryCode = geo.CountryCode
	// RunStore is a crash-safe journal of scan samples and checkpoints;
	// attach one via Options.Store to make a study resumable.
	RunStore = runstore.Store
	// RunStoreOptions tunes a RunStore (metrics and the chaos crash
	// hook).
	RunStoreOptions = runstore.Options
	// RunStorePhase is the journaled state of one study phase.
	RunStorePhase = runstore.PhaseInfo
	// FabricCoordinator distributes a study's scan phases across worker
	// processes (see NewFabric and Options.Fabric).
	FabricCoordinator = fabric.Coordinator
	// FabricOptions tunes a FabricCoordinator.
	FabricOptions = fabric.Options
	// FabricStudySpec is what workers regenerate the study's world from.
	FabricStudySpec = fabric.StudySpec
	// FabricFaultSpec replicates a named chaos profile on every worker.
	FabricFaultSpec = fabric.FaultSpec
	// FabricWorker executes leased scan units for a remote coordinator.
	FabricWorker = fabric.Worker
	// FabricWorkerOptions tunes a FabricWorker.
	FabricWorkerOptions = fabric.WorkerOptions
	// VerdictSnapshot is an immutable compiled (domain × country)
	// block-verdict matrix — what the serving edge answers from (see
	// System.Verdicts and Options.VerdictOut).
	VerdictSnapshot = verdict.Snapshot
	// Verdict is one (domain, country) answer from a VerdictSnapshot.
	Verdict = verdict.Verdict
	// VerdictSource is the raw input to CompileVerdicts for callers that
	// assemble matrices outside a study.
	VerdictSource = verdict.Source
	// Tracer collects a run's wide events (see internal/trace); build
	// one with NewTracer and attach it via Options.Trace.
	Tracer = trace.Tracer
	// TraceSpanCtx is a propagated trace context (trace ID + span ID).
	TraceSpanCtx = trace.SpanCtx
)

// NewTracer builds a tracer rooted at the deterministic context the
// given world seed derives. Chain the tracer's With* methods to add a
// wall clock (for Perfetto-meaningful timestamps) or a flight-recorder
// sink before passing it to Options.Trace.
func NewTracer(seed uint64) *Tracer {
	if seed == 0 {
		seed = worldgen.DefaultConfig().Seed
	}
	return trace.New(trace.Root(seed))
}

// ErrFabricWorkerKilled is returned by a FabricWorker's Run when its
// chaos kill hook fires mid-study.
var ErrFabricWorkerKilled = fabric.ErrKilled

// NewFabric builds the coordinator side of a distributed study. Serve
// coordinator.Handler() over HTTP, pass the coordinator via
// Options.Fabric, and the study's residential scan phases execute on
// whatever workers (cmd/scanworker, or NewFabricWorker embedders) lease
// from it — with output byte-identical to an in-process run. Call
// FinishStudy when the study returns so workers exit.
func NewFabric(opts FabricOptions) *FabricCoordinator { return fabric.New(opts) }

// NewFabricWorker dials a coordinator and regenerates its world; the
// returned worker's Run loop executes leased units until the study
// completes.
func NewFabricWorker(ctx context.Context, opts FabricWorkerOptions) (*FabricWorker, error) {
	return fabric.NewWorker(ctx, opts)
}

// OpenRunStore opens (or creates) a run journal in dir, recovering
// from any crash-torn tail. Attach the store via Options.Store and a
// study will journal every scan phase; reopening the same directory
// with the same study configuration resumes where the last run died,
// replaying completed work from disk instead of refetching it.
func OpenRunStore(dir string, opts RunStoreOptions) (*RunStore, error) {
	return runstore.Open(dir, opts)
}

// Options configures a System.
type Options struct {
	// Seed drives all randomness; the same seed reproduces the same
	// world and the same study results bit for bit. 0 means the default
	// seed (403).
	Seed uint64
	// Scale in (0, 1] shrinks every population uniformly; 1.0 (the
	// default) is paper scale (10,000 + 152k CDN customers, 177
	// countries).
	Scale float64
	// World, when non-nil, overrides Seed/Scale with a full custom
	// calibration.
	World *WorldConfig
	// Log, when non-nil, receives progress lines from long runs.
	Log func(format string, args ...any)
	// Ctx, when non-nil, cancels in-flight scans when it expires; a
	// cancelled study returns partial results. Nil means never cancel.
	Ctx context.Context
	// Metrics, when non-nil, replaces the study's default virtual-clock
	// telemetry registry; a CLI's live /debug/metrics view reads the one
	// it injects here. Scans read no clock, so the registry's clock
	// times only what else shares it, such as a journal's fsyncs
	// (RunStoreOptions.Metrics).
	Metrics *telemetry.Registry
	// Trace, when non-nil, turns on wide-event tracing: every study
	// and analysis stage, scan phase, scheduler shard, session open,
	// emission, and verdict-edge slow lookup records into it, and
	// Tracer.Snapshot() exports the run as Chrome trace-event JSON (the
	// CLIs' -trace flag). Tracing
	// never influences results; deterministic-class events are
	// byte-identical at any concurrency or worker count.
	Trace *Tracer
	// Store, when non-nil, journals every scan phase to disk and
	// resumes interrupted studies from their checkpoints (see
	// OpenRunStore). Results are byte-identical with or without it.
	Store *RunStore
	// Fabric, when non-nil, routes every residential scan phase through
	// the distributed coordinator instead of the in-process engine (see
	// NewFabric). Composes with Store: the coordinator's completions are
	// journaled and resumed exactly like local work.
	Fabric *FabricCoordinator
	// VerdictOut, when non-nil, receives the verdict snapshot each
	// completed study compiles from its confirmed findings — the hook a
	// serving daemon uses to swap in fresh answers. The snapshot is also
	// retained on the System (see Verdicts) regardless.
	VerdictOut func(*VerdictSnapshot)
}

// System is a simulated Internet plus the measurement apparatus over
// it. Create one with New; it is safe to run multiple studies against
// the same System, but note that studies advance the world's policy
// clock (as time passed during the real study, too).
type System struct {
	World *worldgen.World
	study *pipeline.Study

	// verdicts holds the latest compiled verdict snapshot, swapped when
	// a study completes.
	verdicts verdict.Holder
}

// New builds the world and the measurement infrastructure.
func New(opts Options) *System {
	var cfg worldgen.Config
	if opts.World != nil {
		cfg = *opts.World
	} else {
		cfg = worldgen.DefaultConfig()
		if opts.Seed != 0 {
			cfg.Seed = opts.Seed
		}
		if opts.Scale != 0 {
			cfg.Scale = opts.Scale
		}
	}
	w := worldgen.Generate(cfg)
	s := pipeline.New(w)
	s.Log = opts.Log
	s.Ctx = opts.Ctx
	if opts.Metrics != nil {
		s.Metrics = opts.Metrics
	}
	s.Trace = opts.Trace
	s.Store = opts.Store
	if opts.Fabric != nil {
		opts.Fabric.BindWorld(w)
		s.Runner = opts.Fabric.RunPhase
	}
	sys := &System{World: w, study: s}
	s.VerdictOut = func(snap *verdict.Snapshot) {
		sys.verdicts.Swap(snap)
		if opts.VerdictOut != nil {
			opts.VerdictOut(snap)
		}
	}
	return sys
}

// Verdicts returns the verdict snapshot compiled by the most recently
// completed study, or nil before the first one. Safe to call from any
// goroutine; successive studies swap the pointer atomically.
func (s *System) Verdicts() *VerdictSnapshot {
	return s.verdicts.Load()
}

// CompileVerdicts builds a verdict snapshot directly from a source —
// for serving layers fed from something other than a live study (a
// decoded file, a hand-built matrix in tests).
func CompileVerdicts(src VerdictSource) (*VerdictSnapshot, error) {
	return verdict.Compile(src)
}

// DecodeVerdicts parses a snapshot previously serialized with
// VerdictSnapshot.Encode — how an edge daemon loads a matrix cold.
func DecodeVerdicts(b []byte) (*VerdictSnapshot, error) {
	return verdict.Decode(b)
}

// Err reports the first scan abort the system's study observed — nil
// after a complete run, otherwise a pipeline.PhaseError naming the
// aborted scan by its journal key.
func (s *System) Err() error { return s.study.Err() }

// Metrics exposes the system's telemetry registry: scan counters, error
// tallies, and body-size and backoff histograms accumulate here as
// studies run.
// Per-stage and per-unit timing lives in the trace (Options.Trace).
func (s *System) Metrics() *telemetry.Registry {
	return s.study.Metrics
}

// Trace exposes the system's tracer — nil unless Options.Trace was
// set. Snapshot it after a study for the full event stream.
func (s *System) Trace() *Tracer {
	return s.study.Trace
}

// Net exposes the system's residential proxy mesh — the seam for
// installing a fault-injection hook (internal/faults) before a chaos
// run.
func (s *System) Net() *proxy.Network {
	return s.study.Net
}

// Probe runs the Lumscan probe (§3.2): samples per pair of every
// domain from every country, sent with headers (nil keeps the browser
// set), streamed to sink in canonical order. Like every study phase it
// journals to Options.Store under the key "cli", runs on Options.Fabric
// when set, traces into Options.Trace, and reports an abort through Err.
func (s *System) Probe(domains []string, countries []CountryCode, samples int, headers map[string]string, sink scanner.Sink) {
	s.study.Probe(domains, countries, samples, headers, sink)
}

// RunTop10K executes the Alexa Top-10K study of §4: safe-list
// filtering, the 3-sample snapshot across 177 countries, outlier
// extraction, clustering and labeling, recall evaluation, and the
// resample-and-confirm flow.
func (s *System) RunTop10K(cfg Top10KConfig) *Top10KResult {
	return s.study.RunTop10K(cfg)
}

// RunTop1M executes the Top-1M CDN-customer study of §5: population
// discovery, the 5% sample, explicit confirmation, and the non-explicit
// consistency analysis for Akamai and Incapsula.
func (s *System) RunTop1M(cfg Top1MConfig) *Top1MResult {
	return s.study.RunTop1M(cfg)
}

// RunExploration executes the §3.1 VPS exploration: NS-based customer
// discovery, ZGrab-style probing from 16 VPSes, and browser
// verification of every flagged pair.
func (s *System) RunExploration() *ExploreResult {
	return s.study.RunExploration()
}

// RunConsistencyExperiment runs the Figure 1/3 subsampling experiment
// over the confirmed findings of a Top-10K run.
func (s *System) RunConsistencyExperiment(r *Top10KResult, population, draws int, sizes []int) *ConsistencyExperiment {
	return s.study.RunConsistencyExperiment(r, population, draws, sizes)
}

// SynthesizeOONI builds a censorship-measurement corpus over the
// world's Citizen Lab test list (§7.1).
func (s *System) SynthesizeOONI(perPair int) *OONICorpus {
	return ooni.Synthesize(s.World, ooni.Config{MeasurementsPerPair: perPair})
}

// AnalyzeOONI runs the geoblocking-confound analysis over a corpus.
func (s *System) AnalyzeOONI(c *OONICorpus) *OONIAnalysis {
	return ooni.Analyze(s.World, c)
}

// CloudflareRulesSnapshot synthesizes the §6 firewall-rules dataset at
// the system's scale.
func (s *System) CloudflareRulesSnapshot() *CloudflareRules {
	return cfrules.Synthesize(s.World.Cfg.Seed, s.World.Cfg.Scale)
}

// AnalyzeTimeouts runs the §7.3 timeout-geoblocking extension over a
// Top-10K run: domains that consistently time out from specific
// countries while answering everywhere else.
func (s *System) AnalyzeTimeouts(r *Top10KResult, resamples int) *TimeoutResult {
	return s.study.AnalyzeTimeouts(r, resamples)
}

// RunAppLayerStudy runs the §7.3 application-layer extension: fetch
// each domain from a reference country and the targets, and report
// removed features, region notices, and price markups.
func (s *System) RunAppLayerStudy(domains []string, ref CountryCode, targets []CountryCode) *AppLayerResult {
	return s.study.RunAppLayerStudy(domains, ref, targets)
}

// RunRegionalAnalysis probes domains through Crimean vs mainland-
// Ukraine exits and reports region-only blocking (§4.2.2 granularity).
func (s *System) RunRegionalAnalysis(domains []string, samples int) []RegionalFinding {
	return s.study.RunRegionalAnalysis(domains, samples)
}

// DefaultWorldConfig returns the paper-scale calibration for callers
// that want to tweak individual knobs before passing Options.World.
func DefaultWorldConfig() WorldConfig { return worldgen.DefaultConfig() }
