// The mapsort analyzer: map iteration order must never reach an output.
// Go randomizes map range order per run, so a loop that ranges over a
// map and emits to a sink, writes a table, or accumulates an output
// slice produces differently-ordered artifacts on every invocation —
// the exact failure the golden-file papertables tests and byte-identical
// chaos assertions exist to catch, surfaced here at compile time rather
// than as a flaky diff. Order-independent folds (summing into another
// map, taking a min) stay legal; the collect-keys-then-sort idiom is
// recognized as the fix. Keeping a key is not such a fold: an argmin,
// an argmax or a pick-any loop that copies the key to a variable
// declared before the loop keeps whichever tied key map order visits
// first (or last), so it is flagged too.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Mapsort flags map-range loops whose iteration order escapes into a
// sink, writer, or output slice without a deterministic sort.
var Mapsort = &Analyzer{
	Name:  "mapsort",
	Doc:   "flag range-over-map loops that write to sinks, tables, or output slices without an intervening deterministic sort",
	Match: scope("geoblock/..."),
	Run:   runMapsort,
}

func runMapsort(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn := funcBody(n)
			if fn == nil {
				return true
			}
			checkMapRanges(p, fn)
			return true
		})
	}
}

// funcBody returns n's body if n declares a function.
func funcBody(n ast.Node) *ast.BlockStmt {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// checkMapRanges inspects one function body. Nested function literals
// are handled by their own funcBody visit; their statements still count
// as "after the loop" text for the sort search, which is the
// conservative direction.
func checkMapRanges(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(p, body, rng)
		return true
	})
}

func checkMapRangeBody(p *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	key, _ := rng.Key.(*ast.Ident)
	var keyObj types.Object
	if key != nil {
		keyObj = p.Info.ObjectOf(key)
	}
	if keyObj != nil && rng.Tok == token.ASSIGN {
		p.Reportf(key.Pos(), keptKeyMsg, key.Name)
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := sinkWrite(p.Info, n); ok {
				p.Reportf(n.Pos(), "%s inside range over a map emits in map iteration order; collect and sort the keys first", name)
			}
		case *ast.AssignStmt:
			if obj := keptKey(p.Info, n, rng, keyObj); obj != nil {
				p.Reportf(n.Pos(), keptKeyMsg, obj.Name())
			}
			// x = append(x, ...) where x outlives the loop: the map's
			// iteration order becomes the slice's element order.
			obj, appendCall := outerAppend(p.Info, n, rng)
			if obj == nil {
				return true
			}
			if !sortedAfter(p.Info, funcBody, rng, obj) {
				p.Reportf(appendCall.Pos(), "range over a map appends to %s in map iteration order and %s is never sorted afterwards; sort it (sort.Slice, sort.Strings, ...) before it is used", obj.Name(), obj.Name())
			}
		}
		return true
	})
}

const keptKeyMsg = "range over a map assigns its key to %s, declared before the loop, so which key it keeps can depend on map iteration order; range over the sorted keys instead"

// keptKey returns the variable declared before rng that the plain
// assignment as copies rng's key (key) into, or nil.
func keptKey(info *types.Info, as *ast.AssignStmt, rng *ast.RangeStmt, key types.Object) types.Object {
	if key == nil || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, rhs := range as.Rhs {
		if id, ok := ast.Unparen(rhs).(*ast.Ident); !ok || info.Uses[id] != key {
			continue
		}
		lhs, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		if obj := info.Uses[lhs]; obj != nil && obj.Pos() < rng.Pos() {
			return obj
		}
	}
	return nil
}

// sinkWrite reports whether call delivers output whose order matters:
// an Emit/EmitOutage/EmitCoverage sink call, or any call handed an
// io.Writer (fmt.Fprintf, report.Table, w.Write, ...).
func sinkWrite(info *types.Info, call *ast.CallExpr) (string, bool) {
	if fn := funcFor(info, call); fn != nil {
		switch fn.Name() {
		case "Emit", "EmitOutage", "EmitCoverage":
			return fn.Name(), true
		}
	}
	for _, arg := range call.Args {
		t := info.TypeOf(arg)
		if t != nil && types.Implements(t, ioWriterIface) {
			name := "call"
			if fn := funcFor(info, call); fn != nil {
				name = fn.Name()
			}
			return name + " (writes to an io.Writer)", true
		}
	}
	// Method writes on a writer receiver: buf.WriteString, w.Write, ...
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Write") {
		if t := info.TypeOf(sel.X); t != nil && types.Implements(t, ioWriterIface) {
			return sel.Sel.Name + " (writes to an io.Writer)", true
		}
	}
	return "", false
}

// outerAppend matches `x = append(x, ...)` (or x’s further elements)
// assigning to a variable declared outside the range statement, and
// returns that variable and the append call.
func outerAppend(info *types.Info, as *ast.AssignStmt, rng *ast.RangeStmt) (types.Object, *ast.CallExpr) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	callee, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || callee.Name != "append" {
		return nil, nil
	}
	if _, isBuiltin := info.Uses[callee].(*types.Builtin); !isBuiltin {
		return nil, nil // a user-defined append, not the builtin
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil || obj.Pos() >= rng.Pos() {
		return nil, nil // loop-local accumulator: its order dies with the loop body
	}
	return obj, call
}

// sortedAfter reports whether, lexically after the range loop, obj is
// passed (anywhere in the argument tree) to a call whose callee name
// mentions sorting — sort.Slice, sort.Strings, slices.SortFunc, a local
// sortCodes helper, and so on.
func sortedAfter(info *types.Info, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			// Keep the qualifier: sort.Strings's tell is the package name.
			name = fun.Sel.Name
			if x, ok := fun.X.(*ast.Ident); ok {
				name = x.Name + "." + name
			}
		default:
			return true
		}
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// ioWriterIface is a structural stand-in for io.Writer, built by hand
// so the check needs no handle on the io package's type object.
var ioWriterIface = func() *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(types.NewVar(0, nil, "n", types.Typ[types.Int]),
			types.NewVar(0, nil, "err", types.Universe.Lookup("error").Type())),
		false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()
