// Trace export: the deterministic view the acceptance matrix
// byte-compares, and the Chrome trace-event JSON that Perfetto and
// chrome://tracing load directly.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"geoblock/internal/telemetry"
)

// Trace is a point-in-time export of a Tracer: the event stream in
// recorded (canonical) order plus the tally of runtime events dropped
// past the limit (see DefaultLimit), which like them depends on the
// schedule.
type Trace struct {
	Root           SpanCtx `json:"root"`
	Events         []Event `json:"events"`
	RuntimeDropped int64   `json:"runtime_dropped,omitempty"`
}

// Deterministic returns the view the engine's determinism contract
// covers: runtime-class events and their drop tally removed, wall
// stamps zeroed. Everything left — IDs, names, coordinates, outcomes,
// attrs, and the order itself — is a pure function of
// the scan inputs, so two runs of the same scan produce byte-identical
// deterministic traces at any Concurrency and any worker count.
func (t *Trace) Deterministic() *Trace {
	out := &Trace{Root: t.Root}
	for _, ev := range t.Events {
		if ev.Runtime {
			continue
		}
		ev.WallNS = 0
		ev.WallDurNS = 0
		out.Events = append(out.Events, ev)
	}
	return out
}

// JSON returns the indented JSON form with a trailing newline — the
// byte-comparison form.
func (t *Trace) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array (the "JSON Array Format with metadata" shape that
// Perfetto's legacy importer and chrome://tracing both accept).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the trace in Chrome trace-event JSON. Events land
// as complete ("X") slices at their wall stamps (zero when no wall
// clock was injected); unit-scoped events get one timeline row (tid)
// per unit, driver events row 0.
func (t *Trace) WriteChrome(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]string{"name": "geoblock " + t.Root.Trace.String()},
	})
	for _, ev := range t.Events {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  "det",
			Ph:   "X",
			TS:   float64(ev.WallNS) / 1e3,
			Dur:  float64(ev.WallDurNS) / 1e3,
			PID:  1,
		}
		if ev.Runtime {
			ce.Cat = "runtime"
		}
		if ev.Unit >= 0 {
			ce.TID = ev.Unit + 1
		}
		args := map[string]string{
			"trace": ev.Trace.String(),
			"span":  ev.Span.String(),
		}
		if ev.Parent != 0 {
			args["parent"] = ev.Parent.String()
		}
		if ev.Phase != "" {
			args["phase"] = ev.Phase
		}
		if ev.Country != "" {
			args["country"] = ev.Country
		}
		if ev.Outcome != "" {
			args["outcome"] = ev.Outcome
		}
		if ev.Unit >= 0 {
			args["unit"] = strconv.Itoa(ev.Unit)
		}
		for _, a := range ev.Attrs {
			args[a.K] = a.V
		}
		ce.Args = args
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	if t.RuntimeDropped > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "trace_dropped_events", Ph: "M", PID: 1,
			Args: map[string]string{"runtime_dropped": strconv.FormatInt(t.RuntimeDropped, 10)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile writes the trace to path — Chrome JSON for ".json" paths
// (the -trace flag's format), indented raw JSON otherwise. The write
// is atomic (telemetry.WriteFileAtomic).
func (t *Trace) WriteFile(path string) error {
	var data []byte
	if strings.HasSuffix(path, ".json") {
		var b bytes.Buffer
		if err := t.WriteChrome(&b); err != nil {
			return err
		}
		data = b.Bytes()
	} else {
		var err error
		if data, err = t.JSON(); err != nil {
			return err
		}
	}
	if err := telemetry.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return nil
}
