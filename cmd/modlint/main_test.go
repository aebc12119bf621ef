package main

// Driver-level tests: the -json document must be byte-stable for a
// given tree (golden), and the stale-suppression audit must gate the
// exit status only under -stale, with or without -json.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and chdirs into it.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		full := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

var fixtureModule = map[string]string{
	"go.mod": "module fixturemod\n\ngo 1.24\n",
	"lib/lib.go": `package lib

func Eq(a, b float64) bool {
	return a == b
}

func Stale(a, b int) bool {
	return a == b //modlint:allow floatcmp -- ints are never flagged: this directive is stale
}
`,
}

const goldenJSON = `{
  "module": "fixturemod",
  "findings": [
    {
      "file": "lib/lib.go",
      "line": 4,
      "col": 11,
      "analyzer": "floatcmp",
      "message": "exact float comparison a == b; use poly.ApproxEq (or annotate //modlint:allow floatcmp -- <why exact>)"
    }
  ],
  "stale_suppressions": [
    {
      "file": "lib/lib.go",
      "line": 8,
      "analyzers": [
        "floatcmp"
      ],
      "rationale": "ints are never flagged: this directive is stale"
    }
  ],
  "stats": {
    "packages": 1
  }
}
`

// TestJSONGolden pins the machine-readable output format: CI archives
// it as an artifact, so drift must be deliberate.
func TestJSONGolden(t *testing.T) {
	writeModule(t, fixtureModule)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (one finding); stderr:\n%s", code, stderr.String())
	}
	if got := stdout.String(); got != goldenJSON {
		t.Errorf("-json output drifted from golden.\ngot:\n%s\nwant:\n%s", got, goldenJSON)
	}
}

// TestStaleGate: stale suppressions are always reported but fail the
// run only under -stale.
func TestStaleGate(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod": "module fixturemod\n\ngo 1.24\n",
		"lib/lib.go": `package lib

func Stale(a, b int) bool {
	return a == b //modlint:allow floatcmp -- ints are never flagged
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("without -stale: exit code = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "stale suppression") {
		t.Errorf("stale suppression not reported: %s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-stale", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("with -stale: exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}

	// The combined form CI runs: the document still lands on stdout and
	// the stale suppression alone fails the run.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-json", "-stale", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("with -json -stale: exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("with -json -stale: stdout is not the JSON document: %v\n%s", err, stdout.String())
	}
	if len(rep.Findings) != 0 || len(rep.Stale) != 1 || rep.Stale[0].Line != 4 {
		t.Errorf("with -json -stale: findings %v, stale %v; want none and the directive at line 4", rep.Findings, rep.Stale)
	}
}

// TestBadPatternExitCode: a pattern matching nothing is a usage error,
// never a vacuous clean pass.
func TestBadPatternExitCode(t *testing.T) {
	writeModule(t, fixtureModule)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./nosuchdir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
	}
}
