package sub

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/trajectory"
)

func TestInterestIndexRoutingAndRebuild(t *testing.T) {
	ix := newInterestIndex(2)
	mk := func(sid uint64, x, y, r2 float64) *subscription {
		s := &subscription{sid: sid, center: geom.Vec{x, y}, poolR2: r2}
		ix.add(s)
		return s
	}
	var subs []*subscription
	for i := 0; i < 60; i++ {
		subs = append(subs, mk(uint64(i), float64(i*10), 0, 4))
	}
	global := mk(1000, 0, 0, math.Inf(1))

	seen := make(map[uint64]bool)
	ix.visitSegment(geom.Vec{-5, 0}, geom.Vec{25, 0}, func(s *subscription) { seen[s.sid] = true })
	for _, want := range []uint64{0, 1, 2, 1000} {
		if !seen[want] {
			t.Fatalf("segment missed subscription %d (saw %v)", want, seen)
		}
	}
	if seen[5] {
		t.Fatal("segment reported an untouched subscription")
	}

	// Retire most entries; the tombstone threshold must trigger a
	// rebuild and routing must stay exact.
	for _, s := range subs[:50] {
		ix.remove(s)
	}
	if ix.dead > 16 && ix.dead > len(ix.entries) {
		t.Fatalf("tombstones not compacted: dead=%d live=%d", ix.dead, len(ix.entries))
	}
	seen = make(map[uint64]bool)
	ix.visitSegment(geom.Vec{495, 0}, geom.Vec{595, 0}, func(s *subscription) { seen[s.sid] = true })
	for i := uint64(50); i < 60; i++ {
		if !seen[i] {
			t.Fatalf("post-rebuild routing lost subscription %d", i)
		}
	}
	ix.remove(global)
	seen = make(map[uint64]bool)
	ix.visitSegment(geom.Vec{0, 0}, geom.Vec{0, 0}, func(s *subscription) { seen[s.sid] = true })
	if seen[1000] {
		t.Fatal("removed global subscription still routed")
	}
}

// TestPoolScanMatchesBruteForce holds candidates to a brute-force
// reading of the same rule over a mostly stationary population split
// across two snapshots: the threshold is the ranked starting value the
// ladder names (the k-th starting value against a sort of the distances
// at lo), and the pool is exactly the objects whose motion reaches it.
func TestPoolScanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dbs := []*mod.DB{mod.NewDB(2, 0), mod.NewDB(2, 0)}
	trajs := make(map[mod.OID]trajectory.Trajectory)
	for i := 1; i <= 200; i++ {
		o := mod.OID(i)
		pos := geom.Vec{rng.Float64()*100 - 50, rng.Float64()*100 - 50}
		vel := geom.Vec{0, 0}
		if i%5 == 0 {
			vel = geom.Vec{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		}
		trajs[o] = trajectory.Linear(0, vel, pos)
		if err := dbs[i%2].Load(o, trajs[o]); err != nil {
			t.Fatal(err)
		}
	}
	snaps := []*mod.Snap{dbs[0].EpochSnapshot(), dbs[1].EpochSnapshot()}
	lo := math.Nextafter(0, math.Inf(1))
	const hi = 50.0
	center := geom.Vec{3, -7}
	f := gdist.PointSq{Point: center}

	var d2s []float64
	for _, tr := range trajs {
		p, err := tr.At(lo)
		if err != nil {
			t.Fatal(err)
		}
		d2s = append(d2s, p.Dist2(center))
	}
	sort.Float64s(d2s)

	check := func(what string, b query.Bound, rung int, wantThr float64) {
		t.Helper()
		pool, thr := candidates(snaps, f, center, b, rung, lo, hi)
		if thr != wantThr {
			t.Fatalf("%s: threshold %v, want %v", what, thr, wantThr)
		}
		for o, tr := range trajs {
			_, got := pool[o]
			if want := reaches(f, tr, wantThr, lo, hi); got != want {
				t.Fatalf("%s: %s in pool = %v, brute force says %v", what, o, got, want)
			}
		}
		if math.IsInf(wantThr, 1) && len(pool) != len(trajs) {
			t.Fatalf("%s: infinite pool holds %d of %d", what, len(pool), len(trajs))
		}
	}
	none := math.Inf(-1)
	check("within", query.Bound{Below: 81, First: 0}, 0, 81)
	check("within, rebuilt at the same instant", query.Bound{Below: 81}, 3, 81)
	for _, k := range []int{1, 7, 50} {
		check("k-NN rung 0", query.Bound{Below: none, First: k}, 0, d2s[4*k-1])
	}
	check("k-NN rung 1", query.Bound{Below: none, First: 7}, 1, d2s[16*7-1])
	check("k-NN past the last starting value", query.Bound{Below: none, First: 7}, 2, math.Inf(1))
	check("k-NN, 4k just past the population", query.Bound{Below: none, First: 51}, 0, math.Inf(1))
	check("k-NN, k > live", query.Bound{Below: none, First: 201}, 0, math.Inf(1))
	check("k-NN, k = MaxInt", query.Bound{Below: none, First: math.MaxInt}, 0, math.Inf(1))

	// A terminated object is not a candidate, whatever the threshold.
	if err := dbs[1].Apply(mod.Terminate(1, 1)); err != nil {
		t.Fatal(err)
	}
	snaps[1] = dbs[1].EpochSnapshot()
	pool, _ := candidates(snaps, f, center, query.Bound{Below: math.Inf(1)}, 0, math.Nextafter(1, 2), hi)
	if _, ok := pool[1]; ok || len(pool) != len(trajs)-1 {
		t.Fatalf("pool past a termination: %d objects, terminated one present = %v", len(pool), ok)
	}
}
