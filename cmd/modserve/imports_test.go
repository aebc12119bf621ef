package main

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// servingGraph is every package of the module that modserve imports,
// directly or not. A package that joins or leaves the serving binary
// changes this list on purpose.
var servingGraph = []string{
	"repro/internal/bead",
	"repro/internal/core",
	"repro/internal/durable",
	"repro/internal/eventq",
	"repro/internal/gdist",
	"repro/internal/geom",
	"repro/internal/mod",
	"repro/internal/obs",
	"repro/internal/order",
	"repro/internal/piecewise",
	"repro/internal/poly",
	"repro/internal/query",
	"repro/internal/rtree",
	"repro/internal/server",
	"repro/internal/shard",
	"repro/internal/sub",
	"repro/internal/tindex",
	"repro/internal/trajectory",
	"repro/internal/vfs",
	"repro/internal/workload",
}

// TestServingImportGraph pins modserve's transitive imports within the
// module to servingGraph. It reads the non-test files of each package
// with go/build, mapping an import path under the module to its
// directory, so it needs no go command.
func TestServingImportGraph(t *testing.T) {
	const module = "repro/"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module) || seen[imp] {
				continue
			}
			seen[imp] = true
			visit(filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(imp, module))))
		}
	}
	visit(".")
	var got []string
	for imp := range seen {
		got = append(got, imp)
	}
	slices.Sort(got)
	var added, removed []string
	for _, imp := range got {
		if !slices.Contains(servingGraph, imp) {
			added = append(added, imp)
		}
	}
	for _, imp := range servingGraph {
		if !seen[imp] {
			removed = append(removed, imp)
		}
	}
	if len(added) > 0 || len(removed) > 0 {
		t.Errorf("modserve's import graph changed: added %v, removed %v", added, removed)
	}
}
