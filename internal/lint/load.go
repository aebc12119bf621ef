package lint

// The modlint driver: a deliberately small module loader plus one
// sequential analysis pass. modlint must not depend on
// golang.org/x/tools, so packages are discovered by walking the module
// tree, parsed with go/parser, and type-checked with go/types in
// dependency order; imports inside the module resolve to the packages
// checked before them and standard-library imports resolve through
// go/importer (compiled export data when available, source otherwise).
// The analyzer suite runs over each package as soon as it is checked.
//
// Raw findings and suppression directives come back per package with
// module-root-relative filenames; the caller applies suppressions and
// the stale-directive audit over whatever package subset the
// invocation selected.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// AnalyzeOptions configures one AnalyzeModule run.
type AnalyzeOptions struct {
	// Analyzers is the suite to run; nil means All().
	Analyzers []*Analyzer
}

// PackageResult is one package's analysis outcome.
type PackageResult struct {
	// ImportPath is the module-relative import path; external test
	// packages carry a trailing "_test".
	ImportPath string
	Dir        string
	// Raw holds every finding, suppressed or not, with filenames
	// relative to the module root. The caller pairs it with Directives
	// via ApplySuppressions.
	Raw []Finding
	// Directives are the package's modlint:allow comments, filenames
	// relative to the module root.
	Directives []Directive
	// TypeErrors holds type-checker soft failures. Analysis still runs
	// (go/types recovers well), but callers should surface them.
	TypeErrors []error
}

// ModuleResult is the outcome of analyzing a whole module.
type ModuleResult struct {
	Root    string
	ModPath string
	// Pkgs is sorted by import path.
	Pkgs []*PackageResult
}

// FindModuleRoot walks up from dir to the nearest go.mod, returning the
// root directory and the module path.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(gm); err == nil {
			mp := parseModulePath(string(data))
			if mp == "" {
				return "", "", fmt.Errorf("lint: no module line in %s", gm)
			}
			return d, mp, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// parseModulePath extracts the module path from go.mod text.
func parseModulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p
			}
			return rest
		}
	}
	return ""
}

// rawPkg is one discovered package before type-checking.
type rawPkg struct {
	importPath string
	dir        string
	files      []*ast.File // in filename order
	imports    map[string]bool
	external   bool // external test package (name ends in _test)
}

// AnalyzeModule type-checks every package under root in dependency
// order and runs the analyzer suite over each.
func AnalyzeModule(root, modPath string, opts AnalyzeOptions) (*ModuleResult, error) {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	fset := token.NewFileSet()
	raws, byPath, err := discoverPackages(fset, root, modPath)
	if err != nil {
		return nil, err
	}
	order, err := topoOrder(raws, byPath)
	if err != nil {
		return nil, err
	}
	imp := newModuleImporter(fset)
	res := &ModuleResult{Root: root, ModPath: modPath}
	for _, rp := range order {
		pass, typeErrs, err := checkOne(fset, imp, rp)
		if err != nil {
			return nil, fmt.Errorf("lint: type-check %s failed: %v", rp.importPath, err)
		}
		res.Pkgs = append(res.Pkgs, analyzeOne(root, rp, pass, typeErrs, analyzers))
	}
	sort.Slice(res.Pkgs, func(i, j int) bool { return res.Pkgs[i].ImportPath < res.Pkgs[j].ImportPath })
	return res, nil
}

// discoverPackages walks the module tree, skipping hidden dirs, testdata
// and vendor trees, and parses every package it finds.
func discoverPackages(fset *token.FileSet, root, modPath string) ([]*rawPkg, map[string]*rawPkg, error) {
	var raws []*rawPkg
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		pkgs, err := parseDir(fset, root, modPath, path)
		raws = append(raws, pkgs...)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	byPath := map[string]*rawPkg{}
	for _, rp := range raws {
		if !rp.external {
			byPath[rp.importPath] = rp
		}
	}
	sort.Slice(raws, func(i, j int) bool { return raws[i].importPath < raws[j].importPath })
	return raws, byPath, nil
}

// parseDir parses one directory's .go files, grouping them by package
// name: the primary package (with its in-package tests) and at most one
// external _test package. A directory without .go files yields none.
func parseDir(fset *token.FileSet, root, modPath, dir string) ([]*rawPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}
	groups := map[string][]*ast.File{}
	for _, e := range entries { // os.ReadDir sorts by filename
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", e.Name(), err)
		}
		groups[f.Name.Name] = append(groups[f.Name.Name], f)
	}
	var out []*rawPkg
	for name, files := range groups {
		rp := &rawPkg{importPath: importPath, dir: dir, files: files, imports: map[string]bool{}}
		if strings.HasSuffix(name, "_test") {
			rp.importPath += "_test"
			rp.external = true
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				if p, err := strconv.Unquote(imp.Path.Value); err == nil {
					rp.imports[p] = true
				}
			}
		}
		out = append(out, rp)
	}
	return out, nil
}

// topoOrder sorts packages so every in-module dependency precedes its
// importers; external test packages go last (nothing can import them).
func topoOrder(raws []*rawPkg, byPath map[string]*rawPkg) ([]*rawPkg, error) {
	var order []*rawPkg
	state := map[*rawPkg]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(rp *rawPkg) error
	visit = func(rp *rawPkg) error {
		switch state[rp] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", rp.importPath)
		case 2:
			return nil
		}
		state[rp] = 1
		for _, dep := range inModuleDeps(rp, byPath) {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[rp] = 2
		order = append(order, rp)
		return nil
	}
	for _, rp := range raws {
		if !rp.external {
			if err := visit(rp); err != nil {
				return nil, err
			}
		}
	}
	for _, rp := range raws {
		if rp.external {
			order = append(order, rp)
		}
	}
	return order, nil
}

// inModuleDeps returns rp's in-module dependencies in sorted order.
func inModuleDeps(rp *rawPkg, byPath map[string]*rawPkg) []*rawPkg {
	paths := make([]string, 0, len(rp.imports))
	for p := range rp.imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var deps []*rawPkg
	for _, p := range paths {
		if dep, ok := byPath[p]; ok && dep != rp {
			deps = append(deps, dep)
		}
	}
	return deps
}

// checkOne type-checks one package and registers it with the importer
// for the packages after it. err is set only when the checker produced
// no package at all; softer failures come back as typeErrs.
func checkOne(fset *token.FileSet, imp *moduleImporter, rp *rawPkg) (pass *Pass, typeErrs []error, err error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(rp.importPath, fset, rp.files, info)
	if tpkg == nil {
		if len(typeErrs) > 0 {
			return nil, nil, typeErrs[0]
		}
		return nil, nil, fmt.Errorf("no package produced")
	}
	if !rp.external {
		imp.pkgs[rp.importPath] = tpkg
	}
	return &Pass{Fset: fset, Files: rp.files, Pkg: tpkg, Info: info}, typeErrs, nil
}

// analyzeOne runs the suite over one type-checked package and
// normalizes positions to module-root-relative paths.
func analyzeOne(root string, rp *rawPkg, pass *Pass, typeErrs []error, analyzers []*Analyzer) *PackageResult {
	res := &PackageResult{ImportPath: rp.importPath, Dir: rp.dir, TypeErrors: typeErrs}
	res.Raw = RunRaw(pass, analyzers)
	for i := range res.Raw {
		res.Raw[i].Position.Filename = rootRel(root, res.Raw[i].Position.Filename)
	}
	res.Directives = CollectDirectives(pass)
	for i := range res.Directives {
		res.Directives[i].Position.Filename = rootRel(root, res.Directives[i].Position.Filename)
	}
	return res
}

// rootRel rewrites an absolute filename to a slash-separated
// module-root-relative one (left untouched if outside the root).
func rootRel(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}

// moduleImporter resolves module-internal paths to the packages checked
// so far and everything else through the standard importers.
type moduleImporter struct {
	// pkgs holds the in-module packages checked so far and every other
	// package imported so far.
	pkgs map[string]*types.Package
	gc   types.Importer
	src  types.Importer
}

func newModuleImporter(fset *token.FileSet) *moduleImporter {
	return &moduleImporter{
		pkgs: map[string]*types.Package{},
		gc:   importer.Default(),
		src:  importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	p, err := m.gc.Import(path)
	if err != nil || p == nil || !p.Complete() {
		// Fall back to type-checking the dependency from source (slower
		// but independent of compiled export data).
		var srcErr error
		p, srcErr = m.src.Import(path)
		if srcErr != nil {
			if err == nil {
				err = srcErr
			}
			return nil, fmt.Errorf("lint: import %q: %v", path, err)
		}
	}
	m.pkgs[path] = p
	return p, nil
}
