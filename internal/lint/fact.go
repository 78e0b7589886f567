// The fact layer: how geovet's analyzers see across package
// boundaries. An analyzer running over one package may record a
// conclusion about an object it declares ("this function transitively
// reaches the wall clock", "this function performs network I/O") or
// about the package as a whole ("these metric names were registered
// with these classes"). When a later pass analyzes a package that
// imports the first, it looks those conclusions up instead of
// re-deriving them — the stdlib-only sibling of go/analysis facts.
//
// Check orders packages so dependencies are analyzed before their
// importers, which is what makes the lookup sound: by the time a pass
// asks about a callee in another package, that package's facts exist.
// Facts are keyed by the variant-stripped package path, so a fact
// exported while analyzing the test-augmented variant of a package
// ("p [p.test]") is found by importers that link against the plain
// package. One Check call owns one store; nothing persists facts.
package lint

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// A Fact is one conclusion attached to an object or a package: a
// plain value (no closures, no AST pointers) that the analyzer that
// exported it type-asserts back to its own fact type.
type Fact any

// factKey addresses one fact: which analyzer concluded it, about which
// package, and about which object within it ("" for package facts).
type factKey struct {
	analyzer string
	pkg      string // variant-stripped package path
	object   string // objectKey, or "" for a package fact
}

// factStore holds every fact exported during one Check call.
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore { return &factStore{m: map[factKey]Fact{}} }

// stripVariant removes go list's test-variant decoration from an
// import path: "p [q.test]" → "p". Facts and package ordering both key
// on the stripped path so the test-augmented variant of a package
// (which replaces the plain one in a -test load) answers for it.
func stripVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// objectKey names an object stably across loads: "Name" for
// package-level objects, "(Recv).Name" for methods. The package is
// carried separately in the factKey.
func objectKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return "(" + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Name()
}

// ExportObjectFact records a conclusion about obj, visible to later
// passes of the same analyzer over packages that import this one.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	p.facts.m[factKey{p.Analyzer.Name, stripVariant(obj.Pkg().Path()), objectKey(obj)}] = f
}

// ObjectFact returns the current analyzer's fact about obj, if a prior
// pass exported one.
func (p *Pass) ObjectFact(obj types.Object) (Fact, bool) {
	if obj == nil || obj.Pkg() == nil {
		return nil, false
	}
	f, ok := p.facts.m[factKey{p.Analyzer.Name, stripVariant(obj.Pkg().Path()), objectKey(obj)}]
	return f, ok
}

// ExportPackageFact records a conclusion about the package under
// analysis as a whole.
func (p *Pass) ExportPackageFact(f Fact) {
	p.facts.m[factKey{p.Analyzer.Name, stripVariant(p.Pkg.Path()), ""}] = f
}

// A FinishPass is handed to an analyzer's Finish hook after every
// package has been analyzed, for module-wide reconciliation over the
// facts it exported (e.g. telemetrycheck's cross-package metric-class
// audit). It can read the analyzer's facts and report diagnostics,
// but sees no syntax: everything it needs must be in the facts.
type FinishPass struct {
	Analyzer *Analyzer
	facts    *factStore
	diags    *[]Diagnostic
}

// PackageFacts returns every package fact this analyzer exported,
// sorted by package path for deterministic iteration.
func (p *FinishPass) PackageFacts() []PackageFactEntry {
	var out []PackageFactEntry
	for k, f := range p.facts.m {
		if k.analyzer == p.Analyzer.Name && k.object == "" {
			out = append(out, PackageFactEntry{Path: k.pkg, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// PackageFactEntry pairs a package path with its fact.
type PackageFactEntry struct {
	Path string
	Fact Fact
}

// Reportf records a module-wide finding at an explicit position
// (FinishPass has no FileSet; facts carry file/line themselves).
func (p *FinishPass) Reportf(file string, line int, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      tokenPosition(file, line),
		Message:  fmt.Sprintf(format, args...),
	})
}
