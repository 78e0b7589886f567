// The wire protocol: what a coordinator and its workers agree on.
//
// The protocol ships coordinates, not payloads. A worker regenerates
// the coordinator's deterministic world from the StudySpec's seed and
// calibration, rebuilds each phase's Plan from the PhaseSpec its first
// grant of the phase carries, and proves agreement through the plan
// and unit fingerprints before any lease runs. Only results cross the
// wire in bulk — and those travel as runstore-framed records, the
// unit's scanner.UnitMetrics typed in its checkpoint, so the
// coordinator journals exactly the bytes a single-process run would
// have journaled. A unit's trace events are a completion's only JSON,
// in the checkpoint's transport-only Trace field.
package fabric

import (
	"encoding/json"
	"fmt"
	"strings"

	"geoblock/internal/faults"
	"geoblock/internal/geo"
	"geoblock/internal/scanner"
	"geoblock/internal/trace"
	"geoblock/internal/worldgen"
)

// Endpoint paths served by Coordinator.Handler.
const (
	PathStudy    = "/fabric/study"
	PathLease    = "/fabric/lease"
	PathComplete = "/fabric/complete"
)

// FaultSpec replicates a named chaos profile on every worker, so a
// distributed chaos run injects the same faults a single-process run
// would. Workers build the injector locally from the seed; verdicts are
// pure functions of (seed, call arguments), so which process asks is
// irrelevant.
type FaultSpec struct {
	Seed    uint64 `json:"seed"`
	Profile string `json:"profile"`
	// Country scopes the profile to one country; empty applies it as
	// the default for all.
	Country string `json:"country,omitempty"`
}

// Injector builds the fault injector the spec names, or errors when
// this binary does not know the profile.
func (f FaultSpec) Injector() (*faults.Injector, error) {
	prof, ok := faults.Named(f.Profile)
	if !ok {
		return nil, fmt.Errorf("unknown fault profile %q (have: %s)", f.Profile, strings.Join(faults.Names(), ", "))
	}
	inj := faults.New(f.Seed)
	if f.Country != "" {
		return inj.Country(geo.CountryCode(f.Country), prof), nil
	}
	return inj.Default(prof), nil
}

// StudySpec is everything a worker needs to rebuild the coordinator's
// world: the full world calibration and the optional fault profile.
type StudySpec struct {
	World  worldgen.Config `json:"world"`
	Faults *FaultSpec      `json:"faults,omitempty"`
}

// ConfigWire is the serializable subset of scanner.Config — the knobs
// that shape a scan's output, minus the process-local seams (funcs,
// registries, tracers, resume state).
type ConfigWire struct {
	Samples   int                `json:"samples"`
	Retries   int                `json:"retries"`
	ShardSize int                `json:"shard_size"`
	Headers   map[string]string  `json:"headers"`
	Bodies    scanner.BodyPolicy `json:"bodies"`
	Phase     string             `json:"phase"`
}

// NewConfigWire extracts the serializable subset of cfg, erroring on
// a config the fabric cannot ship: one with a WrapTransport middleware.
func NewConfigWire(cfg scanner.Config) (ConfigWire, error) {
	if cfg.WrapTransport != nil {
		return ConfigWire{}, fmt.Errorf("fabric: Config.WrapTransport cannot cross the wire")
	}
	return ConfigWire{
		Samples:   cfg.Samples,
		Retries:   cfg.Retries,
		ShardSize: cfg.ShardSize,
		Headers:   cfg.Headers,
		Bodies:    cfg.Bodies,
		Phase:     cfg.Phase,
	}, nil
}

// Config rebuilds the scanner.Config a worker executes units under.
// Concurrency stays zero: workers execute one unit at a time, and the
// determinism contract makes the knob output-invariant anyway.
func (w ConfigWire) Config() scanner.Config {
	return scanner.Config{
		Samples:   w.Samples,
		Retries:   w.Retries,
		ShardSize: w.ShardSize,
		Headers:   w.Headers,
		Bodies:    w.Bodies,
		Phase:     w.Phase,
	}
}

// PhaseSpec describes one scan phase: the inputs a worker rebuilds the
// Plan from, and the fingerprints that prove coordinator and worker
// built the same one.
type PhaseSpec struct {
	ID        int               `json:"id"`
	Phase     string            `json:"phase"`
	Domains   []string          `json:"domains"`
	Countries []geo.CountryCode `json:"countries"`
	Tasks     []scanner.Task    `json:"tasks"`
	Config    ConfigWire        `json:"config"`
	// Fingerprint is the coordinator's Plan.Fingerprint for this phase.
	Fingerprint uint64 `json:"fingerprint"`
	// Units is the plan's unit count.
	Units int `json:"units"`
	// WorldClock is the coordinator world's policy clock at phase start.
	// Studies advance the clock between phases (policies flap as time
	// passes); workers set their regenerated world to this value before
	// executing any of the phase's units.
	WorldClock int64 `json:"world_clock"`
	// Trace is the coordinator-issued scan-level trace context. Workers
	// pin it as Config.TraceCtx, so the per-unit contexts they derive —
	// and every ID on every shipped event — match what an in-process
	// run would have stamped. Zero means the coordinator is not
	// tracing.
	Trace trace.SpanCtx `json:"trace"`
}

// Lease grant statuses.
const (
	// StatusUnit: a unit was leased; execute it.
	StatusUnit = "unit"
	// StatusWait: no work right now (between phases); poll again after
	// RetryMillis.
	StatusWait = "wait"
	// StatusStudyDone: the study is over; the worker may exit.
	StatusStudyDone = "study-done"
)

// DefaultLeaseBatch is how many units a worker asks for per lease
// round trip. Units are small (a shard of ~32 tasks executes in
// milliseconds on the simulated net), so per-unit leasing makes the
// coordinator round trip the dominant cost and workers spend their
// time waiting on HTTP instead of scanning. Batching amortizes one
// round trip over K units.
const DefaultLeaseBatch = 16

// MaxLeaseBatch caps what a single request may ask for, so one greedy
// worker cannot drain a phase and starve the rest.
const MaxLeaseBatch = 64

// LeaseRequest asks the coordinator for work. Max is the largest batch
// the worker wants in this round trip; 0 means 1. Phase is the phase
// whose plan the worker holds, 0 for none: a grant for any other phase
// carries its spec.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
	Phase  int    `json:"phase,omitempty"`
}

// UnitLease is one leased unit inside a grant.
type UnitLease struct {
	Seq   int    `json:"seq"`
	Lease uint64 `json:"lease"`
	// Fingerprint is the coordinator's fingerprint for the leased unit;
	// the worker refuses the lease if its own plan disagrees.
	Fingerprint uint64 `json:"fingerprint"`
	// Span is the coordinator-derived span ID for the unit — redundant
	// with the derivation the worker performs from PhaseSpec.Trace, and
	// carried precisely so that redundancy is checkable: the worker
	// errors if the two disagree, the same trust-but-verify posture as
	// the fingerprints. Zero when the coordinator is not tracing.
	Span trace.ID `json:"span,omitempty"`
}

// LeaseGrant is the coordinator's answer to a lease request.
type LeaseGrant struct {
	Status string `json:"status"`
	// Set when Status is StatusUnit: the phase the units belong to and
	// the batch itself, in canonical (ascending seq) order.
	Phase int         `json:"phase,omitempty"`
	Units []UnitLease `json:"units,omitempty"`
	// Spec is the phase's PhaseSpec as JSON, set when the request named
	// another phase.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Set when Status is StatusWait.
	RetryMillis int64 `json:"retry_millis,omitempty"`
}

// Ack is the coordinator's answer to a completion. OK false with a
// Status explains why the call did not land — a completion for a phase
// that has ended is a normal fabric event, not an error.
type Ack struct {
	OK     bool   `json:"ok"`
	Status string `json:"status,omitempty"`
}
