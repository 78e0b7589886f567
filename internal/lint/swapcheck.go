// The swapcheck analyzer: shared snapshot state keeps its discipline.
// The serving layers hold state that many goroutines touch — the
// verdict Holder's atomic snapshot pointer, the fabric coordinator's
// lease tables, the telemetry registry's metric maps — and each has
// exactly one sanctioned access pattern. The race detector validates
// those patterns only on the schedules a test happens to produce;
// swapcheck checks the pattern itself.
//
// Three rules, over the packages that share state across goroutines
// (the facade, the fabric, the verdict edge, telemetry, the journal,
// and worldd):
//
// S1: in a struct with a mu sync.Mutex/RWMutex field, the fields
// declared below mu are the guarded set — that is this codebase's
// layout convention — and code that touches them must either hold the
// lock (the enclosing function locks a mutex) or declare that its
// caller does (the *Locked naming convention). Immutable-after-init
// fields belong above mu, where the convention exempts them.
//
// S2: a struct field of atomic type is touched only by methods of the
// owning type. An atomic field poked from outside its type's methods
// scatters the memory-ordering reasoning across packages.
//
// S3: no network I/O while holding a mutex. A lease handler that calls
// out to a peer mid-critical-section serializes the fleet on its
// slowest member; the fact layer (shared with clockflow's propagation)
// sees through wrappers to the http.Client.Do three calls down.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// netFact marks a function that transitively performs network I/O.
type netFact struct {
	Via string
}

// swapScope is where shared snapshot state lives: packages whose
// structs are read by many goroutines while one swaps or mutates.
var swapScope = scope(
	"geoblock",
	"geoblock/cmd/worldd/...",
	"geoblock/internal/fabric/...",
	"geoblock/internal/verdict/...",
	"geoblock/internal/telemetry/...",
	"geoblock/internal/trace/...",
	"geoblock/internal/runstore/...",
)

// Swapcheck enforces mutex/atomic discipline on shared snapshot state.
var Swapcheck = &Analyzer{
	Name: "swapcheck",
	Doc:  "guarded fields accessed under their mutex, atomic fields only via their type's methods, no network I/O under a lock",
	// Match is nil: network-I/O facts must be computed module-wide so
	// S3 sees through wrappers in any package. Reporting is gated on
	// swapScope below.
	Run: runSwapcheck,
}

// netSeed reports direct network I/O: net dials and listens, net/http
// client entry points, and RoundTrip implementations.
func netSeed(info *types.Info) func(ast.Node) string {
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
		case "net":
			switch fn.Name() {
			case "Dial", "DialTimeout", "DialUDP", "DialTCP", "Listen", "ListenTCP", "ListenPacket":
				return "calls net." + fn.Name()
			}
		case "net/http":
			switch fn.Name() {
			case "Get", "Head", "Post", "PostForm", "Do", "RoundTrip":
				return "calls http." + fn.Name()
			}
		}
		return ""
	}
}

func runSwapcheck(p *Pass) {
	reaches := propagate(p, netSeed(p.Info), func(fn *types.Func) string {
		if f, ok := p.ObjectFact(fn); ok {
			return f.(*netFact).Via
		}
		return ""
	})
	for fn, via := range reaches {
		p.ExportObjectFact(fn, &netFact{Via: via})
	}

	if !swapScope(p.Path) {
		return
	}
	guarded := guardedFields(p)
	decls := funcDecls(p)
	var fns []*types.Func
	for fn := range decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, fn := range fns {
		checkGuardedAccess(p, fn, decls[fn], guarded)
		checkAtomicAccess(p, fn, decls[fn])
		checkLockedNetwork(p, fn, decls[fn], reaches)
	}
}

// guardedFields finds, for each struct in the package with a mutex
// field, the set of fields declared after it.
func guardedFields(p *Pass) map[*types.Var]string {
	guarded := map[*types.Var]string{} // field var → struct name, for messages
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			sawMutex := false
			for _, fieldDecl := range st.Fields.List {
				for _, name := range fieldDecl.Names {
					v, ok := p.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if isMutex(v.Type()) {
						sawMutex = true
						continue
					}
					if sawMutex {
						guarded[v] = ts.Name.Name
					}
				}
			}
			return true
		})
	}
	return guarded
}

func isMutex(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// locksSomething reports whether the function body calls Lock or RLock
// on a mutex anywhere — the coarse "holds a lock" qualifier for S1.
func locksSomething(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := funcFor(p.Info, call); fn != nil && (fn.Name() == "Lock" || fn.Name() == "RLock") {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isMutex(sig.Recv().Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkGuardedAccess is S1.
func checkGuardedAccess(p *Pass, fn *types.Func, decl *ast.FuncDecl, guarded map[*types.Var]string) {
	if len(guarded) == 0 || strings.HasSuffix(fn.Name(), "Locked") || locksSomething(p, decl.Body) {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		if structName, isGuarded := guarded[v]; isGuarded {
			p.Reportf(sel.Sel.Pos(), "field %s.%s is declared below its guarding mutex but %s neither locks one nor follows the *Locked caller-holds convention: hoist immutable fields above mu, or take the lock", structName, v.Name(), fn.Name())
		}
		return true
	})
}

// checkAtomicAccess is S2.
func checkAtomicAccess(p *Pass, fn *types.Func, decl *ast.FuncDecl) {
	recvType := receiverNamed(fn)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		v, ok := s.Obj().(*types.Var)
		if !ok || !isAtomicType(v.Type()) {
			return true
		}
		owner, ok := structKeyOf(s.Recv())
		if !ok {
			return true
		}
		if recvType != "" && owner == stripVariant(p.Pkg.Path())+"."+recvType {
			return true
		}
		p.Reportf(sel.Sel.Pos(), "atomic field %s.%s touched outside %s's own methods: keep the memory-ordering discipline in one place by going through the type's accessors", shortStruct(owner), v.Name(), shortStruct(owner))
		return true
	})
}

// receiverNamed returns the name of fn's receiver type, or "".
func receiverNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func isAtomicType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// checkLockedNetwork is S3: within one function, a network call (by
// seed or by fact) positioned after a Lock with no intervening
// non-deferred Unlock is a network round trip inside a critical
// section.
func checkLockedNetwork(p *Pass, fn *types.Func, decl *ast.FuncDecl, reaches map[*types.Func]string) {
	var locks, unlocks []token.Pos
	type netCall struct {
		pos token.Pos
		via string
	}
	var nets []netCall
	seed := netSeed(p.Info)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			return false // a deferred Unlock holds to return; a deferred call runs outside the section
		case *ast.CallExpr:
			callee := funcFor(p.Info, n)
			if callee == nil {
				return true
			}
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && isMutex(sig.Recv().Type()) {
				switch callee.Name() {
				case "Lock", "RLock":
					locks = append(locks, n.Pos())
				case "Unlock", "RUnlock":
					unlocks = append(unlocks, n.Pos())
				}
				return true
			}
			var via string
			if why := seed(n.Fun); why != "" {
				via = why
			} else if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if why := seed(sel.Sel); why != "" {
					via = why
				}
			}
			if via == "" {
				if why, ok := reaches[callee]; ok {
					via = "calls " + callee.Name() + ", which " + why
				} else if f, ok := p.ObjectFact(callee); ok {
					via = "calls " + callee.Pkg().Name() + "." + callee.Name() + ", which " + f.(*netFact).Via
				}
			}
			if via != "" {
				nets = append(nets, netCall{n.Pos(), via})
			}
		}
		return true
	})
	for _, nc := range nets {
		held := false
		for _, l := range locks {
			if l < nc.pos {
				held = true
				for _, u := range unlocks {
					if l < u && u < nc.pos {
						held = false
						break
					}
				}
				if held {
					break
				}
			}
		}
		if held {
			p.Reportf(nc.pos, "network I/O while a mutex may be held (%s): a slow peer extends the critical section unboundedly — copy the state out, unlock, then call", nc.via)
		}
	}
}
