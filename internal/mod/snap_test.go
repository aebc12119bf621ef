package mod

import (
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
)

// TestEpochSnapshotCaching pins the MVCC contract: unchanged epoch →
// same pointer (the lock-free fast path), mutation → new epoch and a
// fresh snapshot, and published snapshots never change.
func TestEpochSnapshotCaching(t *testing.T) {
	db := NewDB(2, math.Inf(-1))
	s1 := db.EpochSnapshot()
	if s1.Len() != 0 || !math.IsInf(s1.Tau(), -1) || s1.Dim() != 2 {
		t.Fatalf("fresh snapshot: len=%d tau=%g dim=%d", s1.Len(), s1.Tau(), s1.Dim())
	}
	if s2 := db.EpochSnapshot(); s2 != s1 {
		t.Fatal("unchanged epoch returned a different snapshot")
	}

	must(t, db.Apply(New(1, 5, geom.Of(1, 0), geom.Of(0, 0))))
	s3 := db.EpochSnapshot()
	if s3 == s1 {
		t.Fatal("mutation did not invalidate the cached snapshot")
	}
	if s3.Epoch() <= s1.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", s1.Epoch(), s3.Epoch())
	}
	if s3.Tau() != 5 || s3.Len() != 1 {
		t.Fatalf("new snapshot: tau=%g len=%d", s3.Tau(), s3.Len())
	}
	// The old snapshot is immutable: it still reports the old state.
	if s1.Len() != 0 || !math.IsInf(s1.Tau(), -1) {
		t.Fatalf("published snapshot mutated: len=%d tau=%g", s1.Len(), s1.Tau())
	}
	if _, err := s3.Traj(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Traj(1); err == nil {
		t.Fatal("old snapshot sees an object created after it")
	}
}

// TestMaxTau: the aggregate tau of a snapshot set is its largest tau,
// and -Inf for no snapshots at all.
func TestMaxTau(t *testing.T) {
	if got := MaxTau(nil); !math.IsInf(got, -1) {
		t.Fatalf("MaxTau(nil) = %g, want -Inf", got)
	}
	a, b := NewDB(2, 3), NewDB(2, math.Inf(-1))
	must(t, b.Apply(New(1, 7, geom.Of(1, 0), geom.Of(0, 0))))
	snaps := []*Snap{a.EpochSnapshot(), b.EpochSnapshot(), NewDB(2, -1).EpochSnapshot()}
	if got := MaxTau(snaps); got != 7 {
		t.Fatalf("MaxTau = %g, want 7", got)
	}
}

// TestEpochSnapshotLoadPaths: Load (historical bulk-load) bumps the
// epoch too — a cached pre-load snapshot must not be served after the
// database's contents changed without going through Apply.
func TestEpochSnapshotLoadPaths(t *testing.T) {
	db := buildSampleDB(t)
	tr, err := db.Traj(1)
	if err != nil {
		t.Fatal(err)
	}

	db2 := NewDB(2, -1)
	stale := db2.EpochSnapshot()
	must(t, db2.Load(1, tr))
	after := db2.EpochSnapshot()
	if after == stale || after.Len() != 1 {
		t.Fatalf("Load did not refresh the snapshot (len=%d, want 1)", after.Len())
	}
}

// TestEpochSnapshotConcurrent hammers the fast path under a writer:
// every snapshot a reader observes must be internally consistent (its
// tau matches a prefix of the applied stream, never a torn mix) and
// epochs must be monotone per reader. Run under -race in CI.
func TestEpochSnapshotConcurrent(t *testing.T) {
	// Start at -Inf, the tau the readers skip as "nothing applied yet".
	db := NewDB(2, math.Inf(-1))
	const updates = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			var lastTau = math.Inf(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := db.EpochSnapshot()
				if s.Epoch() < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", s.Epoch(), lastEpoch)
					return
				}
				if s.Tau() < lastTau {
					t.Errorf("tau went backwards: %g after %g", s.Tau(), lastTau)
					return
				}
				// tau n ⇒ exactly n+1 updates applied (taus are 0..n):
				// a torn view would break this pairing.
				if !math.IsInf(s.Tau(), -1) && s.Len() != 1 {
					t.Errorf("snapshot with tau %g holds %d objects, want 1", s.Tau(), s.Len())
					return
				}
				lastEpoch, lastTau = s.Epoch(), s.Tau()
			}
		}()
	}
	must(t, db.Apply(New(1, 0, geom.Of(1, 0), geom.Of(0, 0))))
	for i := 1; i < updates; i++ {
		must(t, db.Apply(ChDir(1, float64(i), geom.Of(float64(i%7), 1))))
	}
	close(stop)
	wg.Wait()
	final := db.EpochSnapshot()
	if final.Tau() != updates-1 {
		t.Fatalf("final snapshot tau %g, want %d", final.Tau(), updates-1)
	}
}
