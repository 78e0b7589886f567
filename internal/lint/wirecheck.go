// The wirecheck analyzer: the journal and verdict codecs must fail
// loudly and carry every field. The engine's crash-safety story rests
// on two properties of its wire code (DESIGN.md §9, §11): every I/O
// and checksum result is checked — a swallowed short write is exactly
// the torn frame the fuzzers only find probabilistically — and the
// encode and decode sides of a codec agree on the fields they carry,
// because a field the encoder writes and the decoder ignores (or an
// added field the encoder never learned about) is silent wire drift
// that replays cleanly and resumes wrongly.
//
// Three rules, over internal/runstore and internal/verdict:
//
// W1: a call whose result carries the outcome of wire I/O
// (binary.Write, io.ReadFull, Write/Sync/Flush methods, a CRC value)
// may not discard it — no bare expression statements, no blank error
// slots. In-memory writers that cannot fail (bytes.Buffer,
// strings.Builder) and deferred cleanup calls are exempt.
//
// W2: a struct field accessed by an Encode function must be accessed
// by the paired Decode (pairs match by name: Encode/Decode,
// encodeRecord/DecodeRecord). The comparison closes over unexported
// same-package helpers on both sides, so delegation to decodeHeader or
// a dec cursor does not hide an access — but it stops at exported
// functions, so a decode-side call back into Encode (to recompute an
// ETag, say) does not trivially satisfy the rule.
//
// W3: once an Encode side touches any field of a module struct, it
// must touch all of them — a new field added to the struct but not to
// the codec is caught at the field's declaration, where a derived or
// rebuilt-at-decode field can carry an exact-line suppression naming
// why it stays off the wire.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Wirecheck enforces checked wire I/O and encode/decode field parity
// in the codec packages.
var Wirecheck = &Analyzer{
	Name: "wirecheck",
	Doc:  "codec I/O results must be checked; fields written by Encode must be read by the paired Decode",
	Match: scope(
		"geoblock/internal/runstore/...",
		"geoblock/internal/verdict/...",
	),
	Run: runWirecheck,
}

func runWirecheck(p *Pass) {
	checkWireIO(p)
	checkCodecParity(p)
}

// wireFuncs are package-level functions whose results carry wire I/O
// outcomes.
var wireFuncs = map[string]map[string]bool{
	"encoding/binary": {"Write": true, "Read": true},
	"io":              {"ReadFull": true, "ReadAtLeast": true, "Copy": true, "CopyN": true, "WriteString": true},
	"hash/crc32":      {"Checksum": true, "Update": true},
}

// wireMethods are method names whose error result carries a wire I/O
// outcome, on any receiver except the exempt in-memory writers.
var wireMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "Read": true,
	"ReadFrom": true, "WriteTo": true, "Sync": true, "Flush": true,
}

// wireExemptRecv lists receiver types whose writes cannot fail: their
// error results exist only to satisfy io interfaces.
func wireExemptRecv(t types.Type) bool {
	return isNamedType(t, "bytes", "Buffer") || isNamedType(t, "strings", "Builder")
}

// isWireCall reports whether call's result carries a wire I/O outcome
// that must not be discarded.
func isWireCall(info *types.Info, call *ast.CallExpr) bool {
	fn := funcFor(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		return wireMethods[fn.Name()] && !wireExemptRecv(recv.Type()) && len(errorResults(fn)) > 0
	}
	return wireFuncs[fn.Pkg().Path()][fn.Name()]
}

// checkWireIO is W1: walk every function body for discarded wire
// results — expression statements and blank-assigned error slots.
func checkWireIO(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.DeferStmt:
				return false // deferred cleanup: close-out Sync/Close idiom
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok && isWireCall(p.Info, call) {
					p.Reportf(st.Pos(), "discarded result of %s: a wire I/O or checksum outcome must flow into an error return or an explicit check, or a torn frame goes unnoticed", callName(p.Info, call))
				}
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 {
					return true
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok || !isWireCall(p.Info, call) {
					return true
				}
				fn := funcFor(p.Info, call)
				for _, i := range errorResults(fn) {
					if i < len(st.Lhs) && isBlank(st.Lhs[i]) {
						p.Reportf(st.Pos(), "error result of %s assigned to _: a wire I/O outcome must flow into an error return or an explicit check, or a torn frame goes unnoticed", callName(p.Info, call))
					}
				}
			}
			return true
		})
	}
}

// callName renders a call's target for diagnostics.
func callName(info *types.Info, call *ast.CallExpr) string {
	fn := funcFor(info, call)
	if fn == nil {
		return "call"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// fieldRef is one struct-field access: which named struct, which
// field, where first seen.
type fieldKey struct {
	structKey string // pkgpath.TypeName
	field     string
}

// codecPair is one Encode/Decode pair found in the package.
type codecPair struct {
	enc, dec *types.Func
}

// checkCodecParity is W2 + W3: pair Encode*/Decode* functions by name
// suffix, close each side over its unexported same-package helpers,
// collect the module-struct fields each side touches, and compare.
func checkCodecParity(p *Pass) {
	decls := funcDecls(p)
	var fns []*types.Func
	for fn := range decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	// Pairs match by bare name (Encode↔Decode, encodeRecord↔
	// DecodeRecord), receiver-agnostic: the codec idiom here pairs a
	// method Encode with a package-level Decode constructor.
	byName := map[string]*types.Func{}
	for _, fn := range fns {
		if _, taken := byName[fn.Name()]; !taken {
			byName[fn.Name()] = fn
		}
	}

	var pairs []codecPair
	for _, fn := range fns {
		name := fn.Name()
		var suffix string
		if strings.HasPrefix(name, "Encode") {
			suffix = strings.TrimPrefix(name, "Encode")
		} else if strings.HasPrefix(name, "encode") {
			suffix = strings.TrimPrefix(name, "encode")
		} else {
			continue
		}
		if isTestFile(p.Fset, fn.Pos()) {
			continue
		}
		for _, decName := range []string{"Decode" + suffix, "decode" + suffix} {
			if dec, ok := byName[decName]; ok {
				pairs = append(pairs, codecPair{enc: fn, dec: dec})
				break
			}
		}
	}
	w3seen := map[fieldKey]bool{}
	for _, pair := range pairs {
		encFields := closureFields(p, decls, pair.enc, decodePrefixed)
		decFields := closureFields(p, decls, pair.dec, encodePrefixed)

		decStructs := map[string]bool{}
		for k := range decFields {
			decStructs[k.structKey] = true
		}

		var encKeys []fieldKey
		for k := range encFields {
			encKeys = append(encKeys, k)
		}
		sort.Slice(encKeys, func(i, j int) bool {
			if encKeys[i].structKey != encKeys[j].structKey {
				return encKeys[i].structKey < encKeys[j].structKey
			}
			return encKeys[i].field < encKeys[j].field
		})

		// W2: every encode-side field of a struct the decoder also
		// handles must be decode-side too.
		for _, k := range encKeys {
			if decStructs[k.structKey] && decFields[k] == token.NoPos {
				p.Reportf(encFields[k], "field %s.%s is written by %s but never read by the paired %s: a field the decoder ignores is silent wire drift",
					shortStruct(k.structKey), k.field, pair.enc.Name(), pair.dec.Name())
			}
		}

		// W3: an encode side that touches a module struct must touch
		// every field of it. Reported at the field declaration, so a
		// derived field documents its own exemption where it is defined.
		for _, structKey := range sortedStructKeys(encFields) {
			st := moduleStruct(p, structKey)
			if st == nil {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				k := fieldKey{structKey, fv.Name()}
				if encFields[k] != token.NoPos || w3seen[k] {
					continue
				}
				w3seen[k] = true
				p.Reportf(fv.Pos(), "field %s.%s is never touched by %s: if it belongs on the wire, encode it; if it is derived at decode, suppress this line with the reason",
					shortStruct(structKey), fv.Name(), pair.enc.Name())
			}
		}
	}
}

// decodePrefixed and encodePrefixed classify codec function names, for
// keeping each side's closure on its own side.
func decodePrefixed(name string) bool {
	return strings.HasPrefix(name, "Decode") || strings.HasPrefix(name, "decode")
}

func encodePrefixed(name string) bool {
	return strings.HasPrefix(name, "Encode") || strings.HasPrefix(name, "encode")
}

// closureFields collects every module-struct field access reachable
// from fn through same-package callees, so delegation to a
// decodeHeader helper, a dec cursor method, or an exported DecodeRecord
// does not hide an access. Callees matching skip are not entered: the
// decode side's closure must not include encoders (or a decoder that
// recomputes an ETag by calling Encode would trivially satisfy field
// parity), and vice versa.
func closureFields(p *Pass, decls map[*types.Func]*ast.FuncDecl, fn *types.Func, skip func(string) bool) map[fieldKey]token.Pos {
	fields := map[fieldKey]token.Pos{}
	visited := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if visited[fn] {
			return
		}
		visited[fn] = true
		decl, ok := decls[fn]
		if !ok {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel, ok := p.Info.Selections[n]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				recordField(fields, sel.Recv(), sel.Obj().Name(), n.Sel.Pos())
			case *ast.CompositeLit:
				tv, ok := p.Info.Types[ast.Expr(n)]
				if !ok {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						recordField(fields, tv.Type, key.Name, key.Pos())
					}
				}
			case *ast.Ident:
				callee, ok := p.Info.Uses[n].(*types.Func)
				if ok && !skip(callee.Name()) {
					if _, samePkg := decls[callee]; samePkg {
						visit(callee)
					}
				}
			}
			return true
		})
	}
	visit(fn)
	return fields
}

// recordField notes an access to a field of a module struct type.
func recordField(fields map[fieldKey]token.Pos, t types.Type, field string, pos token.Pos) {
	key, ok := structKeyOf(t)
	if !ok {
		return
	}
	k := fieldKey{key, field}
	if fields[k] == token.NoPos {
		fields[k] = pos
	}
}

// structKeyOf names a module-declared struct type, after pointer and
// slice stripping.
func structKeyOf(t types.Type) (string, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasPrefix(stripVariant(obj.Pkg().Path()), "geoblock") {
		return "", false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return "", false
	}
	return stripVariant(obj.Pkg().Path()) + "." + obj.Name(), true
}

// sortedStructKeys returns the distinct struct keys of a field-access
// set, sorted for deterministic reporting.
func sortedStructKeys(fields map[fieldKey]token.Pos) []string {
	seen := map[string]bool{}
	var keys []string
	for k := range fields {
		if !seen[k.structKey] {
			seen[k.structKey] = true
			keys = append(keys, k.structKey)
		}
	}
	sort.Strings(keys)
	return keys
}

func shortStruct(structKey string) string {
	if i := strings.LastIndex(structKey, "/"); i >= 0 {
		return structKey[i+1:]
	}
	return structKey
}

// moduleStruct resolves a structKey back to its *types.Struct, when
// the type is declared in the package under analysis or one it
// imports.
func moduleStruct(p *Pass, structKey string) *types.Struct {
	i := strings.LastIndex(structKey, ".")
	pkgPath, name := structKey[:i], structKey[i+1:]
	tpkg := p.Pkg
	if stripVariant(tpkg.Path()) != pkgPath {
		tpkg = nil
		for _, imp := range p.Pkg.Imports() {
			if stripVariant(imp.Path()) == pkgPath {
				tpkg = imp
				break
			}
		}
		if tpkg == nil {
			return nil
		}
	}
	obj, ok := tpkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	return st
}
