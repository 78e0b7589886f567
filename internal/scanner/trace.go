// Trace wiring for the engine: deterministic span-context derivation
// shared by the in-process scheduler and the fabric, plus the unit and
// end-of-scan events.
//
// The derivations here are the distributed half of the determinism
// story: a coordinator resolves the scan context once (ScanTraceCtx),
// ships it in the PhaseSpec, and every worker derives the identical
// per-unit contexts (UnitTraceCtx) from it — so a unit's events carry
// the same IDs no matter which process executed it.
package scanner

import (
	"strconv"

	"geoblock/internal/trace"
)

// ScanTraceCtx resolves the scan-level trace context for a config:
// the explicitly propagated TraceCtx when set (the fabric worker
// path), otherwise a child of the tracer's root named after the phase
// (the in-process path). Zero — tracing off — when neither is set.
func ScanTraceCtx(cfg Config) trace.SpanCtx {
	if cfg.TraceCtx.Valid() {
		return cfg.TraceCtx
	}
	return cfg.Trace.Root().Child("scan/"+cfg.Phase, 0)
}

// UnitTraceCtx derives a work unit's span context from the scan
// context and the unit's canonical sequence number.
func UnitTraceCtx(scanCtx trace.SpanCtx, seq int) trace.SpanCtx {
	return scanCtx.Child("unit", seq)
}

// unitBuffer opens the staging buffer for one shard's events, nil when
// tracing is off — the engine's hot path then pays one nil test per
// instrumentation site.
func unitBuffer(scanCtx trace.SpanCtx, seq int, cfg Config) *trace.Buffer {
	if !scanCtx.Valid() {
		return nil
	}
	return trace.NewBuffer(UnitTraceCtx(scanCtx, seq), scanCtx.Span, cfg.Trace.WallClock())
}

// closeUnit records the shard's closing "unit" event: one wide record
// carrying the unit's coordinates, fate, and wall duration.
func closeUnit(tb *trace.Buffer, sh *shard, cfg Config, samples int, wallStart int64, lost OutageReason) {
	if tb == nil {
		return
	}
	ev := trace.NewEvent(tb.Ctx(), "unit")
	ev.Parent = tb.Parent()
	ev.Unit = sh.seq
	ev.Country = sh.country
	ev.Phase = cfg.Phase
	ev.Outcome = outcome(lost)
	ev.WallNS = wallStart
	ev.WallDurNS = tb.Wall() - wallStart
	ev.Attrs = []trace.Attr{
		{K: "tasks", V: strconv.Itoa(len(sh.tasks))},
		{K: "samples", V: strconv.Itoa(samples)},
		{K: "slot", V: strconv.FormatUint(sh.slot, 16)},
	}
	tb.Record(ev)
}

// outcome labels a unit's fate in its events: "ok", or the loss reason.
func outcome(lost OutageReason) string {
	if lost == OutageNone {
		return "ok"
	}
	return lost.String()
}

// recordScanTail emits the end-of-scan events Assembly.Finish records:
// one "outage" event per degraded country (each also firing the flight
// recorder), then the closing "scan" event.
func recordScanTail(tr *trace.Tracer, scanCtx trace.SpanCtx, phase string, outages []Outage, shards int) {
	if tr == nil || !scanCtx.Valid() {
		return
	}
	wall := tr.Now()
	for i, o := range outages {
		ev := trace.NewEvent(scanCtx.Child("outage", i), "outage")
		ev.Parent = scanCtx.Span
		ev.Phase = phase
		ev.Country = string(o.Country)
		ev.Outcome = o.Reason.String()
		ev.WallNS = wall
		ev.Attrs = []trace.Attr{
			{K: "shards_lost", V: strconv.Itoa(o.Shards)},
			{K: "shards_total", V: strconv.Itoa(o.ShardsTotal)},
			{K: "tasks_lost", V: strconv.Itoa(o.Tasks)},
		}
		tr.Record(ev)
		tr.Trigger("outage: " + string(o.Country) + " " + o.Reason.String())
	}
	ev := trace.NewEvent(scanCtx, "scan")
	ev.Phase = phase
	if len(outages) == 0 {
		ev.Outcome = "ok"
	} else {
		ev.Outcome = "degraded"
	}
	ev.WallNS = wall
	ev.Attrs = []trace.Attr{
		{K: "shards", V: strconv.Itoa(shards)},
		{K: "outages", V: strconv.Itoa(len(outages))},
	}
	tr.Record(ev)
}
