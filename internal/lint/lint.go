// Package lint is a small, stdlib-only static-analysis framework plus the
// repo-specific analyzers that guard the engine's invariants. The
// plane-sweep core (Lemmas 7-8, Theorems 4-5 of the paper) is only correct
// if the numeric comparisons on curve/event times go through epsilon-aware
// helpers and the concurrent server/watch layers never read lock-guarded
// kinetic state unlocked; the crash-safe, concurrent engine grown on
// top (committer goroutines with ack watermarks, pooled scratch buffers,
// the six-step fsync/rename checkpoint protocol) adds invariant families
// of its own. One analyzer per family:
//
//	floatcmp          exact float ==/!= on computed values
//	goroutinecapture  guarded fields read in a goroutine without the lock
//	errdrop           silently discarded error results
//	unlockpath        Lock() without Unlock() on some path (per-function CFG)
//	poolescape        sync.Pool values escaping their Get..Put window
//	atomicmix         mixed atomic and plain access to one variable
//	syncorder         checkpoint-protocol fsync ordering (durable/vfs only)
//
// Copies of lock-containing values are go vet's copylocks check, which
// `go vet ./...` runs; the suite does not repeat it.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis at a
// fraction of the surface: an Analyzer inspects one type-checked package
// (a Pass) and reports Diagnostics. It is built only on go/parser, go/ast
// and go/types, consistent with the repo's no-external-deps seed.
//
// Suppression: a finding may be silenced with a comment of the form
//
//	//modlint:allow floatcmp  -- reason
//	/* modlint:allow floatcmp -- reason */
//
// naming one or more comma-separated analyzers (or "all"). The directive
// covers findings on its own line and the line below; when that line
// opens a multi-line statement, coverage extends to the statement's last
// line, so a directive above (or trailing) a wrapped call suppresses
// findings anywhere inside it. Suppressions are expected to carry a
// justification ("inputs provably exact" and the like); the driver's
// stale-suppression audit reports directives that no longer match any
// finding, so dead escapes cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //modlint:allow comments.
	Name string
	// Doc is a one-line description shown by `modlint -list`.
	Doc string
	// Run inspects the pass and returns findings. Positions must be
	// valid in pass.Fset.
	Run func(pass *Pass) []Diagnostic
}

// Pass is one package presented to an analyzer: syntax plus types.
type Pass struct {
	Fset *token.FileSet
	// Files are the parsed files of the package, including in-package
	// _test.go files.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info carries the type-checker's fact tables for Files.
	Info *types.Info
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string // filled by Run (the runner) if empty
	Message  string
}

// Diag is a convenience constructor.
func Diag(pos token.Pos, format string, args ...interface{}) Diagnostic {
	return Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)}
}

// Finding is a resolved diagnostic, position translated for display.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// Directive is one modlint:allow suppression comment.
type Directive struct {
	// Position locates the directive comment itself.
	Position token.Position
	// FromLine..ToLine is the covered line range in Position.Filename:
	// the directive's own line(s), the line below, and — when one of
	// those opens a multi-line statement — through that statement's end.
	FromLine, ToLine int
	// Analyzers are the named analyzers (lowercased), possibly "all".
	Analyzers []string
	// Rationale is the text after "--", for display in audits.
	Rationale string
}

// covers reports whether the directive suppresses analyzer a at pos.
func (d Directive) covers(a string, pos token.Position) bool {
	if pos.Filename != d.Position.Filename || pos.Line < d.FromLine || pos.Line > d.ToLine {
		return false
	}
	for _, name := range d.Analyzers {
		if name == a || name == "all" {
			return true
		}
	}
	return false
}

// All returns the repo's analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp, GoroutineCapture, ErrDrop,
		UnlockPath, PoolEscape, AtomicMix, SyncOrder,
	}
}

// Run applies the analyzers to one package and returns findings with
// suppressions applied, sorted by position.
func Run(pass *Pass, analyzers []*Analyzer) []Finding {
	findings := RunRaw(pass, analyzers)
	kept, _ := ApplySuppressions(findings, CollectDirectives(pass))
	return kept
}

// RunRaw applies the analyzers and returns every finding, suppressed or
// not, sorted by position. The caller pairs it with CollectDirectives
// and ApplySuppressions; keeping the raw set around is what makes the
// stale-suppression audit possible.
func RunRaw(pass *Pass, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		for _, d := range a.Run(pass) {
			name := d.Analyzer
			if name == "" {
				name = a.Name
			}
			out = append(out, Finding{Position: pass.Fset.Position(d.Pos), Analyzer: name, Message: d.Message})
		}
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, analyzer, message
// — the stable order every output mode uses.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Position, fs[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Message < fs[j].Message
	})
}

// ApplySuppressions filters findings through the directives, returning
// the kept findings and, aligned with dirs, whether each directive
// matched at least one finding (the input to the stale audit).
func ApplySuppressions(findings []Finding, dirs []Directive) (kept []Finding, used []bool) {
	used = make([]bool, len(dirs))
	for _, f := range findings {
		suppressed := false
		for i, d := range dirs {
			if d.covers(f.Analyzer, f.Position) {
				used[i] = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	return kept, used
}

const allowLineDirective = "//modlint:allow"

// CollectDirectives scans the pass's comments for modlint:allow
// directives, in both line-comment and block-comment form, computing
// each directive's covered line range (own line, line below, extended
// through a multi-line statement opened on either).
func CollectDirectives(pass *Pass) []Directive {
	var out []Directive
	for _, f := range pass.Files {
		spans := statementSpans(pass.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := directiveBody(c.Text)
				if !ok {
					continue
				}
				d := parseDirective(body)
				d.Position = pass.Fset.Position(c.Pos())
				endLine := pass.Fset.Position(c.End()).Line
				d.FromLine = d.Position.Line
				d.ToLine = endLine + 1
				for _, l := range [2]int{d.FromLine, endLine + 1} {
					if end := spans[l]; end > d.ToLine {
						d.ToLine = end
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// directiveBody extracts the directive text after "modlint:allow" from
// a line or block comment, or ok=false.
func directiveBody(text string) (string, bool) {
	if rest, ok := strings.CutPrefix(text, allowLineDirective); ok {
		return rest, true
	}
	if inner, ok := strings.CutPrefix(text, "/*"); ok {
		inner = strings.TrimSuffix(inner, "*/")
		if rest, ok := strings.CutPrefix(strings.TrimSpace(inner), "modlint:allow"); ok {
			return rest, true
		}
	}
	return "", false
}

// parseDirective splits "floatcmp, errdrop -- reason" into names and
// rationale.
func parseDirective(rest string) Directive {
	var d Directive
	if i := strings.Index(rest, "--"); i >= 0 {
		d.Rationale = strings.TrimSpace(rest[i+2:])
		rest = rest[:i]
	}
	for _, name := range strings.Split(rest, ",") {
		if name = strings.TrimSpace(name); name != "" {
			d.Analyzers = append(d.Analyzers, name)
		}
	}
	return d
}

// statementSpans maps, per starting line, the last line of the longest
// simple statement (or declaration group / field) opening there — the
// data the multi-line directive coverage rule needs. Only statements
// without nested bodies extend coverage: a directive on an if/for/func
// line must not blanket everything inside the body.
func statementSpans(fset *token.FileSet, f *ast.File) map[int]int {
	spans := map[int]int{}
	note := func(n ast.Node) {
		from := fset.Position(n.Pos()).Line
		to := fset.Position(n.End()).Line
		if to > spans[from] {
			spans[from] = to
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.DeclStmt,
			*ast.SendStmt, *ast.IncDecStmt, *ast.GoStmt, *ast.DeferStmt,
			*ast.GenDecl, *ast.ValueSpec, *ast.Field:
			note(n)
		}
		return true
	})
	return spans
}
