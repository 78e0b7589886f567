// The telemetrycheck analyzer: the metric namespace is static and
// class-consistent. The telemetry layer splits metrics into a
// deterministic class (part of the byte-identical snapshot contract)
// and a runtime class (wall-clock-adjacent, excluded from it), with a
// name's class fixed at first registration (DESIGN.md §8). Three ways
// to silently break that audit:
//
// T1: a dynamic metric name. If the name isn't a string literal, a
// package const, or telemetry.Label over one (with literal keys —
// label values may be dynamic, that is what labels are for), the
// registry's first-registration-wins class rule depends on runtime
// data and the namespace can't be audited statically. A name that is a
// parameter of an unexported helper is traced one level: every call
// site must pass a static name.
//
// T2: the same name registered with different classes (or kinds) in
// different packages. Each package exports the registrations it
// makes as a fact; a Finish pass reconciles them module-wide, so
// scanner registering a deterministic counter and a daemon registering
// the same name as a runtime gauge collide at build time, not in a
// diverging snapshot.
//
// T3: a deterministic-class registration reachable only from an HTTP
// handler. Serving traffic is runtime by definition — a det-class
// metric mutated per request makes the deterministic snapshot a
// function of load. Flagged when the registration sits in a
// handler-shaped function, or in an unexported function whose only
// intra-package callers are handler-shaped.
//
// internal/telemetry itself is exempt: it is the layer's implementor,
// and its Snapshot plumbing necessarily handles names and
// classes as data.
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// metricReg is one metric registration: resolved name, kind, class,
// and where.
type metricReg struct {
	Name    string
	Kind    string // counter | gauge | histogram
	Runtime bool
	File    string
	Line    int
}

// telemetryFact is a package's metric registrations, for the
// module-wide class audit.
type telemetryFact struct {
	Regs []metricReg
}

const telemetryPkg = "geoblock/internal/telemetry"

// registryMethods maps telemetry.Registry constructor names to
// (kind, runtime class).
var registryMethods = map[string]struct {
	kind    string
	runtime bool
}{
	"Counter":          {"counter", false},
	"RuntimeCounter":   {"counter", true},
	"Gauge":            {"gauge", false},
	"RuntimeGauge":     {"gauge", true},
	"Histogram":        {"histogram", false},
	"RuntimeHistogram": {"histogram", true},
}

// Telemetrycheck enforces static metric names and module-wide
// name/class consistency.
var Telemetrycheck = &Analyzer{
	Name: "telemetrycheck",
	Doc:  "metric names must be literals or consts, registered with one class module-wide; deterministic metrics must stay off runtime-only paths",
	// Match is nil: registrations anywhere in the module feed the
	// cross-package class audit. The telemetry package itself is
	// exempted in Run.
	Run:    runTelemetrycheck,
	Finish: finishTelemetrycheck,
}

func runTelemetrycheck(p *Pass) {
	if p.Path == telemetryPkg || !strings.HasPrefix(p.Path, "geoblock") {
		return
	}
	decls := funcDecls(p)
	handlerish := handlerOnly(p, decls)

	var regs []metricReg
	record := func(name string, kind string, runtime bool, pos ast.Node) {
		position := p.Fset.Position(pos.Pos())
		regs = append(regs, metricReg{Name: name, Kind: kind, Runtime: runtime, File: position.Filename, Line: position.Line})
	}

	var fns []*types.Func
	for fn := range decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	for _, fn := range fns {
		decl := decls[fn]
		if isTestFile(p.Fset, decl.Pos()) {
			// Tests stage scratch registries with throwaway names;
			// the namespace audit is about what ships.
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := funcFor(p.Info, call)
			m, ok := isRegistryCall(callee)
			if !ok || len(call.Args) == 0 {
				return true
			}
			nameArg := call.Args[0]
			name, static := staticMetricName(p, nameArg)
			if !static {
				if !tracedParam(p, decls, fn, decl, nameArg, m, record) {
					p.Reportf(nameArg.Pos(), "metric name for %s is not a string literal, package const, or telemetry.Label over one: a dynamic name defeats the registry's static class audit", callee.Name())
				}
			} else {
				record(name, m.kind, m.runtime, nameArg)
			}
			if !m.runtime && handlerish[fn] {
				p.Reportf(call.Pos(), "deterministic-class %s registered on an HTTP-handler path: serving load would perturb the byte-identical snapshot; use the runtime class (Runtime%s)", callee.Name(), callee.Name())
			}
			return true
		})
	}
	if len(regs) > 0 {
		sort.Slice(regs, func(i, j int) bool {
			if regs[i].File != regs[j].File {
				return regs[i].File < regs[j].File
			}
			return regs[i].Line < regs[j].Line
		})
		p.ExportPackageFact(&telemetryFact{Regs: regs})
	}
}

// isRegistryCall reports whether fn is a telemetry.Registry metric
// constructor, and which one.
func isRegistryCall(fn *types.Func) (struct {
	kind    string
	runtime bool
}, bool) {
	var zero struct {
		kind    string
		runtime bool
	}
	if fn == nil || fn.Pkg() == nil || stripVariant(fn.Pkg().Path()) != telemetryPkg {
		return zero, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isNamedType(sig.Recv().Type(), fn.Pkg().Path(), "Registry") {
		return zero, false
	}
	m, ok := registryMethods[fn.Name()]
	return m, ok
}

// staticMetricName resolves e to a compile-time metric name: a string
// literal, a constant, or telemetry.Label(base, k1, v1, ...) where
// base and the keys are static (values may be dynamic). Returns the
// base name — labeled variants share their base's class.
func staticMetricName(p *Pass, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := funcFor(p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Name() != "Label" || stripVariant(fn.Pkg().Path()) != telemetryPkg {
		return "", false
	}
	if len(call.Args) == 0 {
		return "", false
	}
	base, ok := staticMetricName(p, call.Args[0])
	if !ok {
		return "", false
	}
	// Keys sit at odd argument indices (1, 3, ...); values between
	// them may be dynamic.
	for i := 1; i < len(call.Args); i += 2 {
		tv, ok := p.Info.Types[ast.Unparen(call.Args[i])]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			p.Reportf(call.Args[i].Pos(), "telemetry.Label key is not a string literal or const: dynamic keys make the metric namespace unbounded and unauditable")
			// Report once and treat the base as resolved; the key
			// diagnostic is the actionable one.
		}
	}
	return base, true
}

// tracedParam handles the one sanctioned indirection: the name is a
// parameter of an unexported same-package helper (the c.count(name)
// idiom). Every intra-package call site must then pass a static name,
// each of which is recorded as a registration in its own right.
func tracedParam(p *Pass, decls map[*types.Func]*ast.FuncDecl, fn *types.Func, decl *ast.FuncDecl, arg ast.Expr, m struct {
	kind    string
	runtime bool
}, record func(string, string, bool, ast.Node)) bool {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := p.Info.Uses[id].(*types.Var)
	if !ok || fn.Exported() {
		return false
	}
	// Which parameter of fn is it?
	sig := fn.Type().(*types.Signature)
	idx := -1
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	// Every call of fn in the package must pass a static name there.
	ok = true
	for caller, callerDecl := range decls {
		if caller == fn {
			continue
		}
		ast.Inspect(callerDecl.Body, func(n ast.Node) bool {
			call, okCall := n.(*ast.CallExpr)
			if !okCall || funcFor(p.Info, call) != fn || idx >= len(call.Args) {
				return true
			}
			if isTestFile(p.Fset, call.Pos()) {
				return true
			}
			name, static := staticMetricName(p, call.Args[idx])
			if !static {
				p.Reportf(call.Args[idx].Pos(), "metric name passed to %s is not a string literal or package const: a dynamic name defeats the registry's static class audit", fn.Name())
				ok = false
				return true
			}
			record(name, m.kind, m.runtime, call.Args[idx])
			return true
		})
	}
	return ok
}

// handlerOnly computes which functions are HTTP-handler-shaped or
// (if unexported) reachable intra-package only from such functions.
func handlerOnly(p *Pass, decls map[*types.Func]*ast.FuncDecl) map[*types.Func]bool {
	shaped := map[*types.Func]bool{}
	callers := map[*types.Func][]*types.Func{}
	for fn, decl := range decls {
		if isHandlerShaped(fn) {
			shaped[fn] = true
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			callee, ok := p.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if _, samePkg := decls[callee]; samePkg {
				callers[callee] = append(callers[callee], fn)
			}
			return true
		})
	}
	// Fixpoint: an unexported function with at least one caller, all
	// of whose callers are handler-only, is handler-only too.
	for changed := true; changed; {
		changed = false
		for fn := range decls {
			if shaped[fn] || fn.Exported() || len(callers[fn]) == 0 {
				continue
			}
			all := true
			for _, c := range callers[fn] {
				if !shaped[c] {
					all = false
					break
				}
			}
			if all {
				shaped[fn] = true
				changed = true
			}
		}
	}
	return shaped
}

// isHandlerShaped reports whether fn has http.HandlerFunc's signature
// or is a ServeHTTP method.
func isHandlerShaped(fn *types.Func) bool {
	if fn.Name() == "ServeHTTP" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 {
		return false
	}
	return isNamedType(sig.Params().At(0).Type(), "net/http", "ResponseWriter") &&
		isNamedType(sig.Params().At(1).Type(), "net/http", "Request")
}

// finishTelemetrycheck is T2: reconcile every package's registrations.
// The first registration of a name (in package/file/line order) fixes
// its kind and class; later conflicting sites are reported.
func finishTelemetrycheck(p *FinishPass) {
	type site struct {
		reg metricReg
		pkg string
	}
	byName := map[string][]site{}
	for _, e := range p.PackageFacts() {
		for _, r := range e.Fact.(*telemetryFact).Regs {
			byName[r.Name] = append(byName[r.Name], site{r, e.Path})
		}
	}
	var names []string
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sites := byName[name]
		sort.Slice(sites, func(i, j int) bool {
			a, b := sites[i].reg, sites[j].reg
			if a.File != b.File {
				return a.File < b.File
			}
			return a.Line < b.Line
		})
		first := sites[0].reg
		reported := map[string]bool{}
		for _, s := range sites[1:] {
			if s.reg.Kind == first.Kind && s.reg.Runtime == first.Runtime {
				continue
			}
			key := fmt.Sprintf("%s:%d", s.reg.File, s.reg.Line)
			if reported[key] {
				continue
			}
			reported[key] = true
			p.Reportf(s.reg.File, s.reg.Line,
				"metric %q registered as %s %s here but as %s %s at %s:%d: one name, one class — a name whose class depends on registration order breaks the deterministic-snapshot audit",
				name, className(s.reg.Runtime), s.reg.Kind, className(first.Runtime), first.Kind, first.File, first.Line)
		}
	}
}

func className(runtime bool) string {
	if runtime {
		return "runtime"
	}
	return "deterministic"
}
