package query

// The live path of the bead index: an update never waits for the index,
// and a sync costs what the updates added, not what history holds —
// pinned by counts (tree inserts, tombstones, allocations), not clocks.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// TestUpdateDoesNotWaitForTheIndex: were the index to hook the
// database's apply section, a chdir could queue behind a running sync
// or re-pack, and every writer behind the chdir. With the lock held for
// writing, Apply must return.
func TestUpdateDoesNotWaitForTheIndex(t *testing.T) {
	db := mod.NewDB(2, -1)
	must(t, db.Apply(mod.New(1, 1, geom.Of(1, 0), geom.Of(0, 0))))
	ix := NewBeadIndex(db)
	ix.mu.Lock() // a sync in progress
	applied := make(chan error, 1)
	go func() { applied <- db.Apply(mod.ChDir(1, 2, geom.Of(0, 1))) }()
	select {
	case err := <-applied:
		ix.mu.Unlock()
		must(t, err)
	case <-time.After(10 * time.Second):
		ix.mu.Unlock()
		<-applied
		t.Fatal("Apply waited for the bead index lock")
	}
	// The update was still noticed.
	tr, err := ix.TrackOf(db.EpochSnapshot(), 1, 1)
	must(t, err)
	if n := len(tr.Samples()); n != 2 {
		t.Fatalf("track has %d samples after the chdir, want 2", n)
	}
}

// TestUpdateLeavesTheSyncedSnapshotInStep: an index synced to a
// snapshot is that snapshot until it syncs again, whatever the database
// does meanwhile. A query on the synced snapshot, issued after a later
// update, reads under the read lock instead of syncing every object of
// the shard again.
func TestUpdateLeavesTheSyncedSnapshotInStep(t *testing.T) {
	db := mod.NewDB(2, -1)
	must(t, db.Apply(mod.New(1, 1, geom.Of(1, 0), geom.Of(0, 0))))
	ix := NewBeadIndex(db)
	snap := db.EpochSnapshot()
	if _, err := ix.TrackOf(snap, 1, 1); err != nil {
		t.Fatal(err)
	}
	must(t, db.Apply(mod.ChDir(1, 2, geom.Of(0, 1))))
	ix.mu.RLock()
	synced, newer := ix.inStep(snap, 1), ix.inStep(db.EpochSnapshot(), 1)
	ix.mu.RUnlock()
	if !synced {
		t.Error("an update put the index out of step with the snapshot it synced to")
	}
	if newer {
		t.Error("the index claims the snapshot after the update without syncing to it")
	}
}

// longHistory is a live trajectory of n pieces with breaks at 1 … n-1.
func longHistory(n int) trajectory.Trajectory {
	pieces := make([]trajectory.Piece, n)
	pos := geom.Of(0, 0)
	for i := range pieces {
		a := geom.Of(float64(i%3)-1, float64(i%2))
		pieces[i] = trajectory.Piece{Start: float64(i), End: float64(i + 1), A: a, B: pos}
		pos = pos.Add(a)
	}
	pieces[n-1].End = math.Inf(1)
	return trajectory.MustFromPieces(pieces...)
}

// historyDB is 40 bystanders and object 1 with a history of n pieces,
// behind an index that has answered once (so it is bulk-built).
func historyDB(tb testing.TB, n int) (*mod.DB, *BeadIndex) {
	tb.Helper()
	db := mod.NewDB(2, -1)
	if err := db.Load(1, longHistory(n)); err != nil {
		tb.Fatal(err)
	}
	for o := mod.OID(2); o <= 41; o++ {
		if err := db.Load(o, trajectory.Linear(0, geom.Of(1, float64(o)), geom.Of(float64(o), 0))); err != nil {
			tb.Fatal(err)
		}
	}
	ix := NewBeadIndex(db)
	if _, err := ix.TrackOf(db.EpochSnapshot(), 1, 2); err != nil {
		tb.Fatal(err)
	}
	return db, ix
}

// TestSyncCostsWhatTheUpdateAdded: after one chdir a sync inserts
// exactly one box into the tree and leaves no tombstone, whether the
// object has 4 pieces or 4,000; over 64 consecutive chdirs the cycle of
// update, snapshot and sync allocates no more than its measured count,
// the same on the long history as on the short one; and chdir-only
// traffic never triggers a re-pack.
func TestSyncCostsWhatTheUpdateAdded(t *testing.T) {
	perCycle := make(map[int]float64)
	for _, n := range []int{4, 4000} {
		db, ix := historyDB(t, n)
		tau := db.Tau()
		cycle := func() {
			tau++
			must(t, db.Apply(mod.ChDir(1, tau, geom.Of(1, 1))))
			if _, err := ix.TrackOf(db.EpochSnapshot(), 1, 2); err != nil {
				t.Fatal(err)
			}
		}
		tree, boxes := ix.tree, ix.tree.Len()
		cycle()
		if got := ix.tree.Len() - boxes; got != 1 || ix.dead != 0 {
			t.Errorf("%d pieces: a sync after one chdir made %d tree inserts and %d tombstones, want 1 and 0", n, got, ix.dead)
		}
		perCycle[n] = testing.AllocsPerRun(64, cycle)
		if want := boxes + 66; ix.tree.Len() != want || ix.dead != 0 || ix.tree != tree {
			t.Errorf("%d pieces: after 66 chdirs the tree holds %d boxes (want %d), %d tombstones, re-packed: %v",
				n, ix.tree.Len(), want, ix.dead, ix.tree != tree)
		}
		got, err := ix.TrackOf(db.EpochSnapshot(), 1, 2)
		must(t, err)
		want, err := TrackOf(db.EpochSnapshot(), 1, 2)
		must(t, err)
		if fmt.Sprint(got.Samples()) != fmt.Sprint(want.Samples()) {
			t.Errorf("%d pieces: the extended track's samples differ from the rebuilt one's", n)
		}
	}
	// The tree over 4,000 boxes is two levels deeper than the tree over
	// 40, but an insert neither weighs the children nor re-fits a level's
	// box with an allocation. Measured: 27 and 27.
	if perCycle[4] > 27 || perCycle[4000] > 27 {
		t.Errorf("allocations per update+sync: %v on 4 pieces (want at most 27), %v on 4,000 (want at most 27)",
			perCycle[4], perCycle[4000])
	}
	t.Logf("allocations per update+snapshot+sync: %v on 4 pieces, %v on 4,000", perCycle[4], perCycle[4000])
}

// BenchmarkBeadIndexSyncLongHistory is the sync that follows one chdir
// on an object with a short and with a long history; only the sync is
// timed. The database is rebuilt every 64 syncs so the history stays
// the length the sub-benchmark names.
func BenchmarkBeadIndexSyncLongHistory(b *testing.B) {
	for _, n := range []int{4, 4000} {
		b.Run(fmt.Sprintf("pieces=%d", n), func(b *testing.B) {
			var db *mod.DB
			var ix *BeadIndex
			var tau float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i%64 == 0 {
					db, ix = historyDB(b, n)
					tau = db.Tau()
				}
				tau++
				if err := db.Apply(mod.ChDir(1, tau, geom.Of(1, 1))); err != nil {
					b.Fatal(err)
				}
				snap := db.EpochSnapshot()
				b.StartTimer()
				if _, err := ix.TrackOf(snap, 1, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
