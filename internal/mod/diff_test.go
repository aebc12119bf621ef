package mod

// The change log behind Snap.Diff: the invalidation currency of
// internal/query's BeadIndex. Between any two snapshots of one
// database, in either order and across any number of compactions,
// Diff names exactly the objects an update or Load touched in between —
// a speed-bound declaration reshapes every bead, so it counts — and the
// log stays within its bound.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// TestSnapDiffIsExact drives random New/ChDir/Terminate/Bound/Load
// sequences, with some rejected updates among them, and holds Diff of
// every pair of the snapshots cut along the way to the brute-force set
// of objects touched between the two.
func TestSnapDiffIsExact(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 42))
			db := NewDB(2, 0)
			type touch struct {
				o     OID
				epoch uint64
			}
			var touched []touch
			var snaps []*Snap
			live := map[OID]bool{} // every object; false once terminated
			var next OID = 1
			tau, compactions, logLen := 0.0, 0, 0
			pick := func() OID {
				os := make([]OID, 0, len(live))
				for o := range live {
					os = append(os, o)
				}
				slices.Sort(os)
				return os[rng.IntN(len(os))]
			}
			for step := 0; step < 1500; step++ {
				tau += 1 + rng.Float64()
				v := geom.Of(rng.Float64()-0.5, rng.Float64()-0.5)
				var err error
				o := next
				switch r := rng.IntN(10); {
				case len(live) < 3 || len(live) < 40 && r == 0:
					next++
					err = db.Apply(New(o, tau, v, geom.Of(0, 0)))
					live[o] = true
				case r == 1 && len(live) < 40:
					next++
					err = db.Load(o, trajectory.Linear(tau-0.5, v, geom.Of(1, 1)))
					tau = db.Tau()
					live[o] = true
				case r == 2:
					o = pick()
					err = db.Apply(Terminate(o, tau))
					if !live[o] {
						if err == nil {
							t.Fatalf("terminating %s twice succeeded", o)
						}
						err = nil // rejected: touches nothing
						o = 0
					}
					live[o] = false
				case r == 3:
					o = pick()
					err = db.Apply(Bound(o, tau, rng.Float64()*3))
				default:
					o = pick()
					err = db.Apply(ChDir(o, tau, v))
					if !live[o] {
						if err == nil {
							t.Fatalf("chdir of terminated %s succeeded", o)
						}
						err, o = nil, 0
					}
				}
				must(t, err)
				delete(live, 0)
				if o != 0 {
					touched = append(touched, touch{o, db.epoch.Load()})
				}
				if n := len(db.changes); n > 2*len(db.objs)+1 {
					t.Fatalf("step %d: the change log holds %d entries for %d objects", step, n, len(db.objs))
				} else if n < logLen {
					compactions++
				}
				logLen = len(db.changes)
				if rng.IntN(25) == 0 {
					snaps = append(snaps, db.EpochSnapshot())
				}
			}
			if compactions < 3 {
				t.Fatalf("the log compacted %d times, want several", compactions)
			}
			want := func(a, b *Snap) []OID {
				lo, hi := min(a.Epoch(), b.Epoch()), max(a.Epoch(), b.Epoch())
				var out []OID
				for _, tc := range touched {
					if tc.epoch > lo && tc.epoch <= hi {
						out = append(out, tc.o)
					}
				}
				slices.Sort(out)
				return slices.Compact(out)
			}
			for _, a := range snaps {
				for _, b := range snaps {
					got, ok := a.Diff(b)
					if !ok {
						t.Fatalf("Diff of two snapshots of one database refused")
					}
					if w := want(a, b); !slices.Equal(got, w) {
						t.Fatalf("epochs %d vs %d: Diff = %v, want %v", a.Epoch(), b.Epoch(), got, w)
					}
				}
			}
			t.Logf("%d snapshots, %d touches, %d compactions", len(snaps), len(touched), compactions)
		})
	}
}

// TestSnapDiffRefusesOtherDatabases: snapshots of different databases —
// a thawed copy included — and unions have no common log.
func TestSnapDiffRefusesOtherDatabases(t *testing.T) {
	a := NewDB(2, 0)
	must(t, a.Apply(New(1, 1, geom.Of(1, 0), geom.Of(0, 0))))
	b := a.Snapshot()
	u, err := Union(a.EpochSnapshot())
	must(t, err)
	for name, other := range map[string]*Snap{"thawed copy": b.EpochSnapshot(), "union": u} {
		if _, ok := a.EpochSnapshot().Diff(other); ok {
			t.Errorf("Diff against a %s reported ok", name)
		}
		if _, ok := other.Diff(a.EpochSnapshot()); ok {
			t.Errorf("Diff of a %s reported ok", name)
		}
	}
	// A rejected update logs nothing.
	s := a.EpochSnapshot()
	if err := a.Apply(ChDir(1, 0, geom.Of(1, 1))); err == nil {
		t.Fatal("stale update should fail")
	}
	if got, ok := a.EpochSnapshot().Diff(s); !ok || len(got) != 0 {
		t.Fatalf("after a rejected update Diff = %v, %v, want none", got, ok)
	}
}
