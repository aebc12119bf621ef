package query

// The sync follows the database's change log: it examines the entries
// of the objects that changed since the snapshot the index is synced
// to, and no other — pinned by counts at two shard sizes — and its
// answers stay the scan's whatever order the snapshots come in.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/rtree"
)

// liveOIDs returns the objects of db that are not terminated, ascending.
func liveOIDs(tb testing.TB, db *mod.DB) []mod.OID {
	tb.Helper()
	snap := db.EpochSnapshot()
	var live []mod.OID
	for _, o := range snap.Objects() {
		tr, err := snap.Traj(o)
		if err != nil {
			tb.Fatal(err)
		}
		if !tr.IsTerminated() {
			live = append(live, o)
		}
	}
	return live
}

// TestSyncExaminesOnlyTheChangedEntries: on shards of 1,000 and 5,000
// objects, the query after k direction changes to k objects syncs the
// index by examining exactly those k entries, and, the box tree's node
// splits aside, the sync allocates the same on both shards.
func TestSyncExaminesOnlyTheChangedEntries(t *testing.T) {
	const runs = 10
	allocs := make(map[[2]int]float64)
	for _, n := range []int{1000, 5000} {
		for _, k := range []int{1, 8, 64} {
			db := uncertainPopulation(t, n)
			ix := NewBeadIndex(db)
			live := liveOIDs(t, db)[:k] // the same k trajectories on both shards
			tau := 100.0                // after every sample and declaration, on both shards
			// turn changes the direction of each of the k objects and
			// returns the snapshot after them.
			turn := func() *mod.Snap {
				for _, o := range live {
					tau += 1e-3
					must(t, db.Apply(mod.ChDir(o, tau, geom.Of(float64(o%5)-2, 1))))
				}
				return db.EpochSnapshot()
			}
			if _, _, err := ix.PossiblyWithin(db.EpochSnapshot(), geom.Of(0, 0), 50, 0, 60, 15); err != nil {
				t.Fatal(err) // the bulk build
			}
			if _, _, err := ix.PossiblyWithin(turn(), geom.Of(0, 0), 50, 0, 60, 15); err != nil {
				t.Fatal(err)
			}
			if ix.resynced != k {
				t.Errorf("%d objects: the sync after %d changes examined %d entries", n, k, ix.resynced)
			}
			// Only the sync is measured: the snapshots are cut beforehand.
			// The box tree is swapped for an empty one: where its node
			// splits fall follows the boxes already in it, and its depth is
			// log N, which is the part of a sync's cost that may grow.
			snaps := make([]*mod.Snap, runs+1)
			for i := range snaps {
				snaps[i] = turn()
			}
			ix.tree = rtree.NewRectTree(ix.dim+1, rtree.DefaultFanout)
			i := 0
			allocs[[2]int{n, k}] = testing.AllocsPerRun(runs, func() {
				if _, err := ix.TrackOf(snaps[i], live[0], 15); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if want := (runs + 2) * k; ix.resynced != want {
				t.Errorf("%d objects: %d syncs of %d changes examined %d entries, want %d",
					n, runs+2, k, ix.resynced, want)
			}
		}
	}
	for _, k := range []int{1, 8, 64} {
		small, large := allocs[[2]int{1000, k}], allocs[[2]int{5000, k}]
		if small != large {
			t.Errorf("a sync of %d changes allocates %v times on 1,000 objects, %v on 5,000", k, small, large)
		}
		t.Logf("a sync of %d changes: %v allocations on 1,000 objects, %v on 5,000", k, small, large)
	}
}

// churn is a random update history on one database, for the
// index-versus-scan differentials.
type churn struct {
	rng  *rand.Rand
	db   *mod.DB
	tau  float64
	live []mod.OID
	next mod.OID
}

func (c *churn) vec(scale float64) geom.Vec {
	return geom.Of(scale*(c.rng.Float64()-0.5), scale*(c.rng.Float64()-0.5))
}

// step applies one random update: a new object (half of them with a
// declared speed bound), a termination, a bound or a direction change.
func (c *churn) step() error {
	c.tau += 0.1 + c.rng.Float64()
	if len(c.live) < 4 || c.rng.Intn(5) == 0 {
		c.next++
		o := c.next
		c.live = append(c.live, o)
		if err := c.db.Apply(mod.New(o, c.tau, c.vec(2), c.vec(60))); err != nil || c.rng.Intn(2) == 0 {
			return err
		}
		c.tau += 0.01
		return c.db.Apply(mod.Bound(o, c.tau, 0.5+3*c.rng.Float64()))
	}
	i := c.rng.Intn(len(c.live))
	o := c.live[i]
	switch c.rng.Intn(6) {
	case 0:
		c.live = append(c.live[:i], c.live[i+1:]...)
		return c.db.Apply(mod.Terminate(o, c.tau))
	case 1:
		return c.db.Apply(mod.Bound(o, c.tau, 0.5+3*c.rng.Float64()))
	default:
		return c.db.Apply(mod.ChDir(o, c.tau, c.vec(2)))
	}
}

// checkAgainstScan asks ix and the scan one random possibly-within
// question, and one track, on snap, and reports where they differ.
func checkAgainstScan(rng *rand.Rand, ix *BeadIndex, snap *mod.Snap, vmax float64) error {
	q := geom.Of(80*(rng.Float64()-0.5), 80*(rng.Float64()-0.5))
	dist := 1 + 8*rng.Float64()
	lo := snap.Tau() * rng.Float64()
	hi := lo + 15*rng.Float64()
	want, err := PossiblyWithin(snap, q, dist, lo, hi, vmax)
	if err != nil {
		return fmt.Errorf("scan: %v", err)
	}
	got, _, err := ix.PossiblyWithin(snap, q, dist, lo, hi, vmax)
	if err != nil {
		return fmt.Errorf("index: %v", err)
	}
	if diff := answersEqual(want, got); diff != "" {
		return fmt.Errorf("epoch %d: index diverges from scan: %s", snap.Epoch(), diff)
	}
	objs := snap.Objects()
	o := objs[rng.Intn(len(objs))]
	tr, err := ix.TrackOf(snap, o, vmax)
	ref, rerr := TrackOf(snap, o, vmax)
	if err != nil || rerr != nil {
		return fmt.Errorf("TrackOf(%v): %v / %v", o, err, rerr)
	}
	if fmt.Sprint(tr.Samples(), tr.Vmax()) != fmt.Sprint(ref.Samples(), ref.Vmax()) {
		return fmt.Errorf("epoch %d: TrackOf(%v) differs from the scan's track", snap.Epoch(), o)
	}
	return nil
}

// TestBeadIndexOutOfOrderSnapshotsMatchScan: the index answers like
// the scan on each query's snapshot when the snapshots come backward
// (an older one right after a newer one), when more than twice the
// object count of updates — a change-log compaction — falls between two
// syncs, and when the default speed bound switches.
func TestBeadIndexOutOfOrderSnapshotsMatchScan(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		c := &churn{rng: rng, db: mod.NewDB(2, -1)}
		ix := NewBeadIndex(c.db)
		var snaps []*mod.Snap
		vmax := 2.0
		for round := 0; round < 30; round++ {
			updates := 1 + rng.Intn(6)
			if round%7 == 3 {
				updates = 2*c.db.Len() + 1 + rng.Intn(10) // a compaction between syncs
			}
			for i := 0; i < updates; i++ {
				must(t, c.step())
			}
			snaps = append(snaps, c.db.EpochSnapshot())
			if round%5 == 4 {
				vmax = 1 + 3*rng.Float64()
			}
			// The newest snapshot, then an older one (a backward sync),
			// then the newest again (a forward sync over the same gap).
			newest := snaps[len(snaps)-1]
			for _, snap := range []*mod.Snap{newest, snaps[rng.Intn(len(snaps))], newest} {
				if err := checkAgainstScan(rng, ix, snap, vmax); err != nil {
					t.Fatalf("trial %d round %d: %v", trial, round, err)
				}
			}
		}
	}
}

// TestBeadIndexConcurrentWriterMatchesScan: with a writer applying
// updates, compactions among them, queries on snapshots of any age
// still answer like the scan. Under -race it also checks that a
// snapshot's change log is never written after it is published.
func TestBeadIndexConcurrentWriterMatchesScan(t *testing.T) {
	c := &churn{rng: rand.New(rand.NewSource(7200)), db: mod.NewDB(2, -1)}
	for i := 0; i < 40; i++ {
		must(t, c.step())
	}
	ix := NewBeadIndex(c.db)
	var (
		mu       sync.Mutex
		snaps    = []*mod.Snap{c.db.EpochSnapshot()}
		answered = make(chan struct{})
	)
	// A few updates for every answered query, and every tenth time more
	// than twice the object count: the log compacts while readers sync
	// to snapshots cut before and after.
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		n := 0
		for range answered {
			n++
			updates := 1 + n%3
			if n%10 == 0 {
				updates = 2*c.db.Len() + 1
			}
			for i := 0; i < updates; i++ {
				if err := c.step(); err != nil {
					t.Error(err)
					return
				}
			}
			s := c.db.EpochSnapshot()
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		}
	}()
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(7300 + g)))
			for i := 0; i < 40; i++ {
				mu.Lock()
				snap := snaps[rng.Intn(len(snaps))]
				if i%2 == 0 {
					snap = snaps[len(snaps)-1]
				}
				mu.Unlock()
				if err := checkAgainstScan(rng, ix, snap, 1+float64(i%3)); err != nil {
					t.Error(err)
					return
				}
				select {
				case answered <- struct{}{}:
				default: // the writer is busy with the last one
				}
			}
		}(g)
	}
	readers.Wait()
	close(answered)
	writer.Wait()
}
