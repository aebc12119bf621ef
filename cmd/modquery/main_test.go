package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	moq "repro"
)

func newShell() *shell { return &shell{db: moq.NewDB(2, -1e18)} }

func run(t *testing.T, sh *shell, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if err := sh.execute(l); err != nil {
			t.Fatalf("execute(%q): %v", l, err)
		}
	}
}

func TestShellUpdateAndQueryFlow(t *testing.T) {
	sh := newShell()
	run(t, sh,
		"new 1 0 1,0 -5,3",
		"new 2 1 0,0 2,2",
		"chdir 1 5 0,-1",
		"show 1",
		"objects",
		"knn 1 1 10 0,0",
		"within 4 1 10 0,0",
		"entering 0 20 0,0 10,10",
		"collide 50 1 10",
		"help",
	)
	if sh.db.Len() != 2 || sh.db.Tau() != 5 {
		t.Errorf("db state: len=%d tau=%g", sh.db.Len(), sh.db.Tau())
	}
}

// TestShellSaveOpenRoundTrip: save writes the binary snapshot whatever
// the file is called (here a name with no suffix at all), and open
// reads it back to the saved state.
func TestShellSaveOpenRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "snapshot")
	sh := newShell()
	run(t, sh, "new 1 0 1,0 -5,3", "chdir 1 2 0,1", "save "+file)
	saved := sh.db.Snapshot()
	run(t, sh, "new 2 5 0,0 9,9")
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "MODS\x03") {
		t.Errorf("saved file starts %q, want the version-3 binary snapshot header", data[:min(5, len(data))])
	}
	run(t, sh, "open "+file)
	if !sh.db.StateEqual(saved) || sh.db.Len() != 1 {
		t.Errorf("after open: len=%d, or not the saved state", sh.db.Len())
	}
}

func TestShellErrors(t *testing.T) {
	sh := newShell()
	bad := []string{
		"bogus",
		"new 1",                 // arity
		"new x 0 1,0 0,0",       // bad oid
		"new 1 zero 1,0 0,0",    // bad time
		"new 1 0 1 0,0",         // bad vector dim
		"terminate 1",           // arity
		"chdir 1 5",             // arity
		"show",                  // arity
		"show 42",               // missing object
		"knn one 0 10 0,0",      // bad k
		"within r 0 10 0,0",     // bad radius
		"entering 0 20 0,0",     // arity
		"collide 5 10",          // arity
		"save",                  // arity
		"open /nonexistent/p.q", // missing file
	}
	for _, l := range bad {
		if err := sh.execute(l); err == nil {
			t.Errorf("execute(%q) should fail", l)
		}
	}
}

func TestShellShowsConstraintSyntax(t *testing.T) {
	sh := newShell()
	run(t, sh, "new 7 0 2,-1 -40,23")
	tr, err := sh.db.Traj(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "x = (2, -1)t + (-40, 23)") {
		t.Errorf("constraint form: %s", tr)
	}
}
