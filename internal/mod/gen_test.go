package mod

// Per-object generation stamps: the invalidation currency of
// internal/query's BeadIndex. Every update kind that touches an object
// must bump its stamp (a speed-bound declaration reshapes every bead,
// so it counts), other objects' stamps must hold still, and snapshots
// must freeze the stamps they were cut with.

import (
	"testing"

	"repro/internal/geom"
)

func TestGenStamps(t *testing.T) {
	db := NewDB(2, -1)
	if g := db.Gen(1); g != 0 {
		t.Fatalf("unknown object gen = %d, want 0", g)
	}
	must(t, db.Apply(New(1, 0, geom.Of(1, 0), geom.Of(0, 0))))
	must(t, db.Apply(New(2, 1, geom.Of(0, 1), geom.Of(5, 5))))
	g1, g2 := db.Gen(1), db.Gen(2)
	if g1 == 0 || g2 == 0 {
		t.Fatalf("creation did not stamp: gen(1)=%d gen(2)=%d", g1, g2)
	}

	snap := db.EpochSnapshot()
	if snap.Gen(1) != g1 || snap.Gen(2) != g2 {
		t.Fatalf("snapshot gens (%d,%d) differ from db (%d,%d)",
			snap.Gen(1), snap.Gen(2), g1, g2)
	}
	if got := snap.Objects(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("snapshot objects %v, want [1 2] ascending", got)
	}
	if trs := snap.Trajectories(); len(trs) != 2 {
		t.Fatalf("snapshot trajectories has %d entries, want 2", len(trs))
	}

	// Every update kind bumps exactly the touched object.
	steps := []struct {
		name string
		u    Update
	}{
		{"chdir", ChDir(1, 2, geom.Of(0, 2))},
		{"bound", Bound(1, 3, 4)},
		{"terminate", Terminate(1, 4)},
	}
	for _, s := range steps {
		before1, before2 := db.Gen(1), db.Gen(2)
		must(t, db.Apply(s.u))
		if db.Gen(1) <= before1 {
			t.Errorf("%s did not bump gen(1): %d -> %d", s.name, before1, db.Gen(1))
		}
		if db.Gen(2) != before2 {
			t.Errorf("%s moved gen(2): %d -> %d", s.name, before2, db.Gen(2))
		}
	}
	// The older snapshot still reads the stamps it was cut with.
	if snap.Gen(1) != g1 {
		t.Fatalf("snapshot gen(1) drifted to %d after later updates", snap.Gen(1))
	}

	// A rejected update stamps nothing.
	before := db.Gen(2)
	if err := db.Apply(ChDir(2, 0, geom.Of(1, 1))); err == nil {
		t.Fatal("stale update should fail")
	}
	if db.Gen(2) != before {
		t.Fatalf("rejected update bumped gen(2): %d -> %d", before, db.Gen(2))
	}

	// SpeedBound reflects declarations (object 1 declared above).
	if v, ok := db.SpeedBound(1); !ok || v != 4 {
		t.Fatalf("SpeedBound(1) = %v,%v, want 4,true", v, ok)
	}
	if _, ok := db.SpeedBound(2); ok {
		t.Fatal("object 2 has no declaration")
	}
}
