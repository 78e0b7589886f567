package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"geoblock/internal/telemetry"
)

func TestRootAndChildDerivationIsPure(t *testing.T) {
	a, b := Root(11), Root(11)
	if a != b {
		t.Fatalf("Root(11) not stable: %v vs %v", a, b)
	}
	if !a.Valid() {
		t.Fatalf("Root(11) invalid: %v", a)
	}
	if Root(12) == a {
		t.Fatalf("different seeds derived the same root")
	}
	c1, c2 := a.Child("scan/initial", 0), a.Child("scan/initial", 0)
	if c1 != c2 {
		t.Fatalf("Child not stable: %v vs %v", c1, c2)
	}
	if c1.Trace != a.Trace {
		t.Fatalf("child switched traces: %v", c1)
	}
	if c1.Span == a.Span {
		t.Fatalf("child span equals parent span")
	}
	if a.Child("scan/initial", 1) == c1 || a.Child("scan/other", 0) == c1 {
		t.Fatalf("distinct coordinates derived the same child span")
	}
	if (SpanCtx{}).Child("x", 0).Valid() {
		t.Fatalf("zero ctx derived a valid child")
	}
}

func TestBufferNilSafetyAndFill(t *testing.T) {
	var nb *Buffer
	nb.Record(Event{Name: "x"})
	if nb.Events() != nil || nb.Ctx().Valid() || nb.Wall() != 0 || nb.Parent() != 0 {
		t.Fatalf("nil buffer not a no-op")
	}

	root := Root(7)
	unit := root.Child("unit", 3)
	b := NewBuffer(unit, root.Span, nil)
	b.Record(Event{Span: unit.Child("session.open", 0).Span, Name: "session.open", Unit: 3})
	evs := b.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Trace != root.Trace {
		t.Fatalf("trace not filled from ctx: %v", evs[0].Trace)
	}
	if evs[0].Parent != unit.Span {
		t.Fatalf("parent not filled from ctx: %v", evs[0].Parent)
	}
}

func TestTracerRecordAppendAndLimit(t *testing.T) {
	var nt *Tracer
	nt.Record(Event{Name: "x"})
	nt.Append([]Event{{Name: "y"}})
	nt.Trigger("nothing")
	if nt.Snapshot() == nil || nt.Root().Valid() {
		t.Fatalf("nil tracer not a no-op")
	}

	// The limit caps runtime events only; deterministic events are kept
	// however many there are, and runtime events past the limit never
	// displace one, whichever arrives first.
	tr := New(Root(11))
	tr.limit = 2
	tr.Record(NewEvent(tr.Root(), "a"))
	for i := 0; i < 3; i++ {
		tr.Record(Event{Name: "steal", Unit: i, Runtime: true})
	}
	tr.Append([]Event{
		{Name: "session.open", Unit: 0}, {Name: "unit", Unit: 0}, {Name: "sink.emit", Unit: 0},
		{Name: "unit", Unit: 1}, {Name: "unit", Unit: 2},
	})
	tr.Record(Event{Name: "lease", Unit: 3, Runtime: true})
	snap := tr.Snapshot()
	var names []string
	for _, ev := range snap.Events {
		names = append(names, ev.Name)
	}
	if got, want := strings.Join(names, " "), "a steal steal session.open unit sink.emit unit unit"; got != want {
		t.Fatalf("kept %q, want %q", got, want)
	}
	if snap.RuntimeDropped != 2 {
		t.Fatalf("runtime dropped = %d; want the steal and lease events past the limit", snap.RuntimeDropped)
	}
	if det := snap.Deterministic(); det.RuntimeDropped != 0 || len(det.Events) != 6 {
		t.Fatalf("deterministic view: %d events, runtime dropped %d; want 6, 0", len(det.Events), det.RuntimeDropped)
	}
	var chrome bytes.Buffer
	if err := snap.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"args":{"runtime_dropped":"2"}`) {
		t.Fatalf("chrome export does not report the drop tally:\n%s", chrome.String())
	}
	if snap.Events[0].Trace != tr.Root().Trace {
		t.Fatalf("Record did not fill the trace ID")
	}
	var dump bytes.Buffer
	tr.DumpFlight(&dump, "limits")
	if !strings.Contains(dump.String(), "events=8 runtime_dropped=2") {
		t.Fatalf("flight dump does not report the drop tally:\n%s", dump.String())
	}
}

func TestTracerClocks(t *testing.T) {
	if got := New(Root(1)).Now(); got != 0 {
		t.Fatalf("Now without a wall clock = %d, want 0", got)
	}
	v := telemetry.NewVirtual()
	v.Advance(5 * time.Millisecond)
	tr := New(Root(1)).WithWall(v)
	if got := tr.Now(); got != 5*time.Millisecond.Nanoseconds() {
		t.Fatalf("Now = %d, want the wall clock's 5ms", got)
	}
	if tr.WallClock() == nil {
		t.Fatalf("wall clock not retained")
	}
}

func TestFlightRecorderDump(t *testing.T) {
	var sink bytes.Buffer
	tr := New(Root(11)).WithFlightSink(&sink)
	// Overflow the ring so the dump window slides.
	for i := 0; i < DefaultFlightSize+10; i++ {
		tr.Record(Event{Name: "unit", Unit: i, Country: "IR", Outcome: "ok"})
	}
	tr.Trigger("seeded outage")
	if tr.FlightDumps() != 1 {
		t.Fatalf("dumps = %d, want 1", tr.FlightDumps())
	}
	out := sink.String()
	if !strings.Contains(out, "trace flight recorder: seeded outage") {
		t.Fatalf("dump missing header:\n%s", out)
	}
	if !strings.Contains(out, "unit=10 country=IR") {
		t.Fatalf("dump missing oldest surviving event (unit 10):\n%s", out)
	}
	if strings.Contains(out, "unit=9 ") {
		t.Fatalf("dump kept an event the ring should have evicted:\n%s", out)
	}
	if !strings.Contains(out, "== end flight dump ==") {
		t.Fatalf("dump missing trailer:\n%s", out)
	}
}

func TestCrashDumpRepanics(t *testing.T) {
	var sink bytes.Buffer
	tr := New(Root(3))
	tr.Record(Event{Name: "unit", Unit: 0})
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("CrashDump swallowed the panic")
			}
		}()
		defer CrashDump(tr, &sink)
		panic("boom")
	}()
	if !strings.Contains(sink.String(), "panic: boom") {
		t.Fatalf("crash dump missing reason:\n%s", sink.String())
	}
	if tr.FlightDumps() != 1 {
		t.Fatalf("dumps = %d, want 1", tr.FlightDumps())
	}
}

func TestDeterministicViewStripsRuntimeAndWall(t *testing.T) {
	tr := New(Root(11))
	tr.Record(Event{Name: "unit", Unit: 0, WallNS: 123, WallDurNS: 45})
	tr.Record(Event{Name: "lease", Unit: -1, Runtime: true})
	det := tr.Snapshot().Deterministic()
	if len(det.Events) != 1 {
		t.Fatalf("runtime event survived: %+v", det.Events)
	}
	ev := det.Events[0]
	if ev.WallNS != 0 || ev.WallDurNS != 0 {
		t.Fatalf("wall stamps survived: %+v", ev)
	}
	a, err := det.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Snapshot().Deterministic().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic JSON not stable")
	}
}

// TestChromeExportSchema pins the -trace output to the Chrome
// trace-event JSON shape Perfetto loads: a traceEvents array whose
// entries all carry name/ph/pid/tid, with "X" events timestamped.
func TestChromeExportSchema(t *testing.T) {
	tr := New(Root(11)).WithWall(telemetry.NewVirtual())
	tr.Record(Event{Name: "scan", Unit: -1, Phase: "initial", Outcome: "ok", WallNS: 2000, WallDurNS: 1000})
	tr.Record(Event{Name: "unit", Unit: 4, Country: "CN", Outcome: "no-exits",
		Attrs: []Attr{{K: "samples", V: "96"}}})
	tr.Record(Event{Name: "lease", Unit: -1, Runtime: true})

	var buf bytes.Buffer
	if err := tr.Snapshot().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Cat  string             `json:"cat"`
			Ph   string             `json:"ph"`
			TS   *float64           `json:"ts"`
			Dur  *float64           `json:"dur"`
			PID  *int               `json:"pid"`
			TID  *int               `json:"tid"`
			Args map[string]*string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 4 { // metadata + 3 events
		t.Fatalf("got %d traceEvents", len(doc.TraceEvents))
	}
	sawX := 0
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %d missing required fields: %+v", i, ev)
		}
		if ev.Ph != "X" {
			continue
		}
		sawX++
		if ev.TS == nil || ev.Cat == "" {
			t.Fatalf("X event %d missing ts/cat: %+v", i, ev)
		}
		if ev.Args["trace"] == nil || ev.Args["span"] == nil {
			t.Fatalf("X event %d missing trace identity args: %+v", i, ev)
		}
	}
	if sawX != 3 {
		t.Fatalf("got %d X events, want 3", sawX)
	}
	// The scan event's wall stamps land as microseconds.
	scan := doc.TraceEvents[1]
	if scan.Name != "scan" || *scan.TS != 2.0 || *scan.Dur != 1.0 {
		t.Fatalf("scan event mistimed: %+v", scan)
	}
	// The unit event rides its unit's timeline row and keeps attrs.
	unit := doc.TraceEvents[2]
	if *unit.TID != 5 || unit.Args["samples"] == nil || *unit.Args["country"] != "CN" {
		t.Fatalf("unit event misplaced: %+v", unit)
	}
	if doc.TraceEvents[3].Cat != "runtime" {
		t.Fatalf("runtime event not categorized: %+v", doc.TraceEvents[3])
	}
}

func TestWriteFileFormats(t *testing.T) {
	dir := t.TempDir()
	tr := New(Root(11))
	tr.Record(Event{Name: "unit", Unit: 0})

	chrome := filepath.Join(dir, "out.json")
	if err := tr.Snapshot().WriteFile(chrome); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "traceEvents") {
		t.Fatalf(".json file is not chrome format:\n%s", b)
	}

	raw := filepath.Join(dir, "out.trace")
	if err := tr.Snapshot().WriteFile(raw); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	var tt Trace
	if err := json.Unmarshal(b, &tt); err != nil {
		t.Fatalf("raw export did not round-trip: %v", err)
	}
	if len(tt.Events) != 1 || tt.Root != tr.Root() {
		t.Fatalf("raw export lost content: %+v", tt)
	}
}
