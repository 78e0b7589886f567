// The clockflow analyzer: the determinism invariant, interprocedurally.
// The determinism analyzer catches a time.Now written in the scan path;
// it cannot catch a scan-path call to a helper in another package that
// calls time.Now, because it reasons one call site at a time — one
// wrapper function defeats it. Clockflow closes that hole with facts:
// it runs over every package in dependency order, computes which
// declared functions transitively reach the wall clock or the global
// RNG (through any chain of wrappers, across any number of packages),
// exports that conclusion, and then flags scan-path call sites whose
// callee lives outside the scan path and carries the fact.
//
// Calls to functions inside the determinism scope are never reported
// here: within the scope, the determinism analyzer already polices
// every direct source line, and whatever it allowed — the clock.go
// Clock seam, an exact-line suppression — is a sanctioned seam whose
// transitive use is the point. Clockflow exists for the escape route
// determinism cannot see: out of the scope, through a wrapper, and
// back into real time.
package lint

import (
	"go/ast"
	"go/types"
)

// clockFact marks a function that transitively reaches the wall clock
// or global RNG. Via records the chain, for diagnostics.
type clockFact struct {
	Via string
}

// Clockflow flags scan-path calls into out-of-scope functions that
// transitively reach the wall clock or global RNG.
var Clockflow = &Analyzer{
	Name: "clockflow",
	Doc:  "scan-path code must not reach time.Now/Sleep or global RNG through wrapper functions in other packages",
	// Match is nil: facts must be computed for every package, because
	// the wrapper chain runs through packages the scan path merely
	// imports. Reporting is still gated on determinismScope below.
	Run: runClockflow,
}

// clockSeed reports whether n is itself a wall-clock or global-RNG
// source, returning the reason.
func clockSeed(info *types.Info) func(ast.Node) string {
	return func(n ast.Node) string {
		id, ok := n.(*ast.Ident)
		if !ok {
			return ""
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return ""
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallClockFuncs[fn.Name()] {
				return "calls time." + fn.Name()
			}
		case "math/rand", "math/rand/v2":
			return "calls " + fn.Pkg().Path() + "." + fn.Name()
		}
		return ""
	}
}

func runClockflow(p *Pass) {
	reaches := propagate(p, clockSeed(p.Info), func(fn *types.Func) string {
		if f, ok := p.ObjectFact(fn); ok {
			return f.(*clockFact).Via
		}
		return ""
	})
	for fn, via := range reaches {
		p.ExportObjectFact(fn, &clockFact{Via: via})
	}

	if !determinismScope(p.Path) {
		return
	}
	// In scope: flag mentions of out-of-scope module functions that
	// carry the fact. Same-package functions and in-scope packages are
	// determinism's jurisdiction; stdlib functions carry no facts.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			calleePkg := stripVariant(fn.Pkg().Path())
			if calleePkg == stripVariant(p.Pkg.Path()) || determinismScope(calleePkg) {
				return true
			}
			fact, ok := p.ObjectFact(fn)
			if !ok {
				return true
			}
			p.Reportf(id.Pos(), "%s.%s reaches the wall clock or global RNG (%s): scan-path timing and randomness must flow through the injected clock and seeded RNG, or output stops being reproducible",
				fn.Pkg().Name(), fn.Name(), fact.(*clockFact).Via)
			return true
		})
	}
}
