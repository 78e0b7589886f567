// The nakedgo analyzer: no stray goroutines in the scan path. The
// program's parallel loops run on scanner.Each, the one worker pool,
// whose every worker is tied to a WaitGroup so a loop drains
// completely before its result is read — the no-deadlock and
// byte-identical chaos assertions both assume it. A `go func` launched
// anywhere in the scan path without such a tie can outlive the scan,
// race the sink's single-goroutine delivery contract, or leak under
// fault injection. OONI's volunteer fleet and provider discovery probe
// the simulated web as scans do, so they are in scope too.
package lint

import (
	"go/ast"
	"go/types"
)

// Nakedgo flags goroutine launches in the scan path that are not tied
// to a WaitGroup (or errgroup-style Done/Wait discipline).
var Nakedgo = &Analyzer{
	Name: "nakedgo",
	Doc:  "scan-path goroutines must be tied to a WaitGroup/errgroup, or the loop must run on scanner.Each",
	Match: scope(
		"geoblock/internal/scanner/...",
		"geoblock/internal/pipeline/...",
		"geoblock/internal/proxy/...",
		"geoblock/internal/lumscan/...",
		"geoblock/internal/faults/...",
		"geoblock/internal/fabric/...",
		"geoblock/internal/verdict/...",
		"geoblock/internal/ooni/...",
		"geoblock/internal/cdnid/...",
	),
	Run: runNakedgo,
}

func runNakedgo(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				p.Reportf(g.Pos(), "goroutine launch in the scan path: wrap it in a WaitGroup-tied literal (wg.Add before, defer wg.Done inside) or run the loop on scanner.Each")
				return true
			}
			if !touchesWaitGroup(p.Info, lit.Body) {
				p.Reportf(g.Pos(), "naked goroutine in the scan path: tie it to a sync.WaitGroup (defer wg.Done()) or run the loop on scanner.Each so scans drain deterministically")
			}
			return true
		})
	}
}

// touchesWaitGroup reports whether body references a sync.WaitGroup
// (typically `defer wg.Done()`), which is the drain tie scanner.Each's
// workers have too.
func touchesWaitGroup(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if isNamedType(obj.Type(), "sync", "WaitGroup") {
			found = true
		}
		return !found
	})
	return found
}
