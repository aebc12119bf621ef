package lint

// goroutinecapture: `go func` literals that read mutex-guarded fields
// without holding the lock.
//
// A goroutine that touches a field of a lock-guarded struct must acquire
// that struct's lock inside the literal; reading a guarded field through
// a captured pointer is a data race the type system cannot see.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineCapture is the goroutine-capture analyzer.
var GoroutineCapture = &Analyzer{
	Name: "goroutinecapture",
	Doc:  "flags go-func literals reading lock-protected fields without the lock",
	Run:  runGoroutineCapture,
}

func runGoroutineCapture(pass *Pass) []Diagnostic {
	var out []Diagnostic
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				out = append(out, checkGoLiteral(pass, lit)...)
			}
			return true
		})
	}
	return out
}

// checkGoLiteral inspects one `go func(){...}()` literal.
func checkGoLiteral(pass *Pass, lit *ast.FuncLit) []Diagnostic {
	var out []Diagnostic
	reported := map[string]bool{}
	locked := lockedBases(pass, lit)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[base]
		if obj == nil || !capturedBy(obj, lit) || locked[obj] {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || lockPath(deref(v.Type())) == "" {
			return true
		}
		s := pass.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		// Touching the lock itself (w.mu.Lock()) is the guarded idiom,
		// not a violation.
		if lockPath(s.Type()) != "" {
			return true
		}
		key := obj.Name() + "." + sel.Sel.Name
		if !reported[key] {
			reported[key] = true
			out = append(out, Diag(sel.Pos(),
				"go-func literal reads guarded field %s without acquiring %s's lock inside the goroutine", key, obj.Name()))
		}
		return true
	})
	return out
}

// capturedBy reports whether obj is declared outside lit (and hence is
// captured by the literal rather than local to it).
func capturedBy(obj types.Object, lit *ast.FuncLit) bool {
	if obj.Pos() == token.NoPos {
		return false
	}
	// Package-level state is shared by design, not a capture.
	if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
		return false
	}
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}

// lockedBases returns the captured variables on which the literal's body
// calls a Lock/RLock method (directly or through a lock-valued field).
func lockedBases(pass *Pass, lit *ast.FuncLit) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		// Walk to the base identifier of w.mu.Lock() / w.Lock().
		base := sel.X
		for {
			if s, ok := base.(*ast.SelectorExpr); ok {
				base = s.X
				continue
			}
			break
		}
		if id, ok := base.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// noCopySyncTypes are the sync primitives that must never be copied after
// first use; a struct holding one by value is lock-guarded state.
var noCopySyncTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Pool": true, "Map": true,
}

// lockPath reports a human-readable path to the first no-copy sync
// primitive contained by value in t ("" if none): e.g. "sync.Mutex" or
// "watcher.mu (sync.Mutex)".
func lockPath(t types.Type) string {
	return lockPathRec(t, map[types.Type]bool{})
}

func lockPathRec(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && noCopySyncTypes[obj.Name()] {
			return "sync." + obj.Name()
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if p := lockPathRec(f.Type(), seen); p != "" {
				if f.Embedded() {
					return p
				}
				return f.Name() + " (" + p + ")"
			}
		}
	case *types.Array:
		return lockPathRec(u.Elem(), seen)
	}
	// Pointers, slices, maps, chans and interfaces share, not copy.
	return ""
}
