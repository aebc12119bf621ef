// Command modlint runs the repo's static-analysis suite (internal/lint)
// over the module: floatcmp, goroutinecapture, errdrop, unlockpath,
// poolescape, atomicmix and syncorder — the mechanical form of the
// numeric-comparison, lock-discipline and fsync-ordering invariants the
// engine depends on. Lock copies are go vet's copylocks check
// (`go vet ./...`).
//
// Usage:
//
//	go run ./cmd/modlint ./...             # whole module
//	go run ./cmd/modlint ./internal/poly   # one subtree
//	go run ./cmd/modlint -json ./...       # machine-readable findings
//	go run ./cmd/modlint -stale ./...      # fail on stale suppressions
//
// Every run loads, type-checks and analyzes the whole module in one
// sequential pass, in dependency order; nothing is cached between runs.
//
// Exit status: 0 clean, 1 findings (or stale suppressions under
// -stale), 2 load/type errors. Suppress a finding with a
// `//modlint:allow <analyzer> -- reason` comment (line or block form)
// on the same line or the line above; every run audits suppressions
// and reports any that no longer match a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fprintf writes best-effort output: there is nothing actionable to do
// when stdout/stderr themselves fail.
func fprintf(w io.Writer, format string, a ...interface{}) {
	_, _ = fmt.Fprintf(w, format, a...)
}

// jsonReport is the -json output document. Field order and the sorted
// slices make the encoding byte-stable for a given tree: findings in
// SortFindings order, stale suppressions by file/line.
type jsonReport struct {
	Module   string         `json:"module"`
	Findings []jsonFinding  `json:"findings"`
	Stale    []jsonStale    `json:"stale_suppressions"`
	Stats    jsonStatsBlock `json:"stats"`
}

type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type jsonStale struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Rationale string   `json:"rationale,omitempty"`
}

type jsonStatsBlock struct {
	Packages int `json:"packages"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings and the suppression audit as JSON on stdout")
	failStale := fs.Bool("stale", false, "exit nonzero when stale modlint:allow suppressions exist")
	fs.Usage = func() {
		fprintf(stderr, "usage: modlint [-list] [-json] [-stale] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fprintf(stderr, "modlint: %v\n", err)
		return 2
	}
	root, modPath, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fprintf(stderr, "modlint: %v\n", err)
		return 2
	}
	keep, err := packageFilter(cwd, root, modPath, fs.Args())
	if err != nil {
		fprintf(stderr, "modlint: %v\n", err)
		return 2
	}

	res, err := lint.AnalyzeModule(root, modPath, lint.AnalyzeOptions{})
	if err != nil {
		fprintf(stderr, "modlint: %v\n", err)
		return 2
	}

	status := 0
	matched := 0
	var findings []lint.Finding
	var stale []lint.Directive
	for _, pkg := range res.Pkgs {
		if len(pkg.TypeErrors) > 0 {
			for _, e := range pkg.TypeErrors {
				fprintf(stderr, "modlint: %s: type error: %v\n", pkg.ImportPath, e)
			}
			status = 2
			continue
		}
		if !keep(pkg.ImportPath) {
			continue
		}
		matched++
		kept, used := lint.ApplySuppressions(pkg.Raw, pkg.Directives)
		findings = append(findings, kept...)
		for i, u := range used {
			if !u {
				stale = append(stale, pkg.Directives[i])
			}
		}
	}
	if matched == 0 && status == 0 {
		// A typo'd pattern must not report a vacuous clean pass.
		fprintf(stderr, "modlint: no packages match %v\n", fs.Args())
		return 2
	}
	lint.SortFindings(findings)
	sort.Slice(stale, func(i, j int) bool {
		if stale[i].Position.Filename != stale[j].Position.Filename {
			return stale[i].Position.Filename < stale[j].Position.Filename
		}
		return stale[i].Position.Line < stale[j].Position.Line
	})

	if *jsonOut {
		rep := jsonReport{
			Module:   modPath,
			Findings: []jsonFinding{},
			Stale:    []jsonStale{},
			Stats:    jsonStatsBlock{Packages: matched},
		}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				File: f.Position.Filename, Line: f.Position.Line, Col: f.Position.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
		}
		for _, d := range stale {
			rep.Stale = append(rep.Stale, jsonStale{
				File: d.Position.Filename, Line: d.Position.Line,
				Analyzers: d.Analyzers, Rationale: d.Rationale,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		for _, f := range findings {
			fprintf(stdout, "%s:%d:%d: [%s] %s\n",
				f.Position.Filename, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
		}
	}

	for _, d := range stale {
		fprintf(stderr, "modlint: stale suppression %s:%d: modlint:allow %s matches no finding\n",
			d.Position.Filename, d.Position.Line, strings.Join(d.Analyzers, ","))
	}
	if len(findings) > 0 {
		fprintf(stderr, "modlint: %d finding(s)\n", len(findings))
		if status == 0 {
			status = 1
		}
	}
	if *failStale && len(stale) > 0 && status == 0 {
		fprintf(stderr, "modlint: %d stale suppression(s)\n", len(stale))
		status = 1
	}
	return status
}

// packageFilter turns CLI package patterns into an import-path predicate.
// Supported patterns: "./..." (everything), "dir/..." and plain package
// directories, resolved relative to the current directory.
func packageFilter(cwd, root, modPath string, patterns []string) (func(string) bool, error) {
	if len(patterns) == 0 {
		return func(string) bool { return true }, nil
	}
	var prefixes []string
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "." && recursive && cwd == root {
			return func(string) bool { return true }, nil
		}
		abs, err := filepath.Abs(filepath.Join(cwd, pat))
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("pattern %q is outside module %s", pat, modPath)
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		if recursive {
			prefixes = append(prefixes, ip+"/", ip)
		} else {
			prefixes = append(prefixes, ip)
		}
	}
	return func(importPath string) bool {
		// External test packages follow their primary package.
		importPath = strings.TrimSuffix(importPath, "_test")
		for i := 0; i < len(prefixes); i++ {
			p := prefixes[i]
			if importPath == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(importPath, p)) {
				return true
			}
		}
		return false
	}, nil
}
