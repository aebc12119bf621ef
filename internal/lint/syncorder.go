package lint

// syncorder: the PR 4 checkpoint protocol — tmp + fsync + rename +
// dir-fsync, and "never ack before the covering fsync" — encoded as a
// checkable rule. It runs only over the durability packages
// (internal/durable and internal/vfs); elsewhere the vocabulary
// (Create/Sync/Rename/SyncDir on a filesystem seam) doesn't apply and
// the check stays silent.
//
// Four rules:
//
//  1. rename-before-sync: a Rename call preceded in the same function
//     by a write (Create/Append/Write/WriteString) with no Sync between
//     the last write and the rename. Publishing an unsynced file is the
//     crash window the atomic-write dance exists to close.
//  2. rename-without-dirsync: a Rename with no SyncDir after it in the
//     same function. The rename itself is not durable until the
//     directory entry is — a crash can un-publish the manifest.
//  3. sync-error-dropped: discarding the error of Sync, SyncDir, Flush
//     or Rotate (`_ =` or a bare call statement). On the
//     durability path a swallowed sync outcome can turn into a false
//     ack; every deliberate swallow must carry a justified
//     //modlint:allow syncorder annotation.
//  4. ack-before-fsync: advancing the group-commit `synced` watermark
//     outside an `err == nil` guard. The watermark IS the ack: moving
//     it without inspecting the fsync outcome breaks acked ⇒ recovered.
//
// Functions themselves named after the wrapped op (e.g. the vfs.OS
// Rename forwarder and the fault-injection wrappers) are exempt from
// rules 1–2: they *are* the primitive, not a protocol step.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SyncOrder is the durability-ordering analyzer.
var SyncOrder = &Analyzer{
	Name: "syncorder",
	Doc:  "flags fsync-ordering violations of the checkpoint protocol (durable/vfs packages only)",
	Run:  runSyncOrder,
}

// syncOrderApplies gates the analyzer to the durability packages:
// internal/mod is included because the journal writer lives there — a
// dropped Flush/Rotate error on the journal is exactly the
// ack-without-durability bug the analyzer exists for.
func syncOrderApplies(pkgPath string) bool {
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	return strings.HasSuffix(pkgPath, "internal/durable") ||
		strings.HasSuffix(pkgPath, "internal/vfs") ||
		strings.HasSuffix(pkgPath, "internal/mod")
}

// syncWriteNames are the calls that put bytes into a file that a later
// Rename would publish.
var syncWriteNames = map[string]bool{
	"Create": true, "Append": true, "Write": true, "WriteString": true,
}

// syncDropNames are the durability-path calls whose error must not be
// discarded (rule 3).
var syncDropNames = map[string]bool{
	"Sync": true, "SyncDir": true, "Flush": true, "Rotate": true, "rotate": true,
}

func runSyncOrder(pass *Pass) []Diagnostic {
	if !syncOrderApplies(pass.Pkg.Path()) {
		return nil
	}
	var out []Diagnostic
	for _, file := range pass.Files {
		// Rules 1–2 are per-function; collect named functions and
		// literals alike.
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && !syncOrderExemptFunc(n.Name.Name) {
					out = append(out, checkRenameOrder(pass, n.Body)...)
				}
				return true
			case *ast.FuncLit:
				out = append(out, checkRenameOrder(pass, n.Body)...)
			}
			return true
		})
		out = append(out, checkSyncErrDrops(pass, file)...)
		out = append(out, checkAckGuard(pass, file)...)
	}
	return out
}

// syncOrderExemptFunc exempts primitive forwarders from rules 1–2.
func syncOrderExemptFunc(name string) bool {
	return name == "Rename" || name == "Remove" || name == "Truncate"
}

// opCall is one ordered filesystem-ish call in a function.
type opCall struct {
	pos  token.Pos
	name string
}

// checkRenameOrder applies rules 1 (rename-before-sync) and 2
// (rename-without-dirsync) to one function body. Ordering is lexical —
// the durability code is written straight-line by design, and the
// durability driver keeps it honest at runtime; this check catches the
// protocol being edited out of order.
func checkRenameOrder(pass *Pass, body *ast.BlockStmt) []Diagnostic {
	var ops []opCall
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals get their own lexical-order scan
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeSimpleName(call)
		switch {
		case syncWriteNames[name]:
			ops = append(ops, opCall{call.Pos(), "write"})
		case name == "Sync":
			ops = append(ops, opCall{call.Pos(), "sync"})
		case name == "SyncDir":
			ops = append(ops, opCall{call.Pos(), "syncdir"})
		case name == "Rename":
			ops = append(ops, opCall{call.Pos(), "rename"})
		}
		return true
	})
	var out []Diagnostic
	for i, op := range ops {
		if op.name != "rename" {
			continue
		}
		// Rule 1: the latest write before this rename must be followed
		// by a Sync before the rename.
		lastWrite, lastSync := -1, -1
		for j := 0; j < i; j++ {
			switch ops[j].name {
			case "write":
				lastWrite = j
			case "sync":
				lastSync = j
			}
		}
		if lastWrite >= 0 && lastSync < lastWrite {
			out = append(out, Diag(op.pos,
				"Rename publishes a file written without an intervening Sync: a crash can expose unsynced contents"))
		}
		// Rule 2: some SyncDir must follow the rename.
		hasDirSync := false
		for j := i + 1; j < len(ops); j++ {
			if ops[j].name == "syncdir" {
				hasDirSync = true
				break
			}
		}
		if !hasDirSync {
			out = append(out, Diag(op.pos,
				"Rename without a following SyncDir: the new directory entry is not durable until the directory is fsynced"))
		}
	}
	return out
}

// checkSyncErrDrops applies rule 3 over a whole file: `_ = x.Sync()`
// and bare `x.Sync()` statements (and the other durability-path calls)
// discard the one bit the ack contract depends on.
func checkSyncErrDrops(pass *Pass, file *ast.File) []Diagnostic {
	var out []Diagnostic
	report := func(call *ast.CallExpr) {
		out = append(out, Diag(call.Pos(),
			"durability-path call %s discards its error: a swallowed sync outcome can become a false ack",
			types.ExprString(call.Fun)))
	}
	check := func(e ast.Expr) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return
		}
		name := calleeSimpleName(call)
		if !syncDropNames[name] {
			return
		}
		if !returnsError(pass, call, types.Universe.Lookup("error").Type()) {
			return
		}
		report(call)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			check(n.X)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						check(rhs)
					}
				}
			}
		}
		return true
	})
	return out
}

// checkAckGuard applies rule 4: an assignment to a field named `synced`
// (the group-commit durability watermark) must sit inside an if whose
// condition tests an error against nil — the fsync outcome must gate
// the ack.
func checkAckGuard(pass *Pass, file *ast.File) []Diagnostic {
	var out []Diagnostic
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "synced" {
				continue
			}
			if _, ok := pass.Info.Selections[sel]; !ok {
				continue
			}
			if !guardedByErrNilCheck(pass, stack) {
				out = append(out, Diag(lhs.Pos(),
					"synced watermark advanced outside an `err == nil` guard: the ack must follow a successful fsync"))
			}
		}
		return true
	})
	return out
}

// guardedByErrNilCheck reports whether any enclosing if-condition in
// the node stack compares an error-typed expression with nil.
func guardedByErrNilCheck(pass *Pass, stack []ast.Node) bool {
	errType := types.Universe.Lookup("error").Type()
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(x ast.Node) bool {
			if found {
				return false
			}
			be, ok := x.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			for _, side := range [2]ast.Expr{be.X, be.Y} {
				if t := pass.TypeOf(side); t != nil && types.Identical(t, errType) {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// calleeSimpleName returns the bare method/function name of a call
// (the selector's Sel, or the identifier itself).
func calleeSimpleName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}
