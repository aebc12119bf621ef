package sub

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
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

func TestPoolIndexCollectAndKth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := mod.NewDB(2, 0)
	var oids []mod.OID
	for i := 1; i <= 200; i++ {
		o := mod.OID(i)
		pos := geom.Vec{rng.Float64()*100 - 50, rng.Float64()*100 - 50}
		vel := geom.Vec{0, 0}
		if i%5 == 0 {
			vel = geom.Vec{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		}
		if err := db.Load(o, trajectory.Linear(0, vel, pos)); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, o)
	}
	snap := db.Snapshot()
	lo := math.Nextafter(snap.Tau(), math.Inf(1))
	idx := buildPoolIndex(snap, lo)

	center := geom.Vec{3, -7}
	const r2, hi = 81.0, 50.0
	got := idx.collect(snap, center, r2, lo, hi, nil)
	want := make(map[mod.OID]bool)
	for _, o := range oids {
		tr, err := snap.Traj(o)
		if err != nil {
			t.Fatal(err)
		}
		if reaches(gdist.PointSq{Point: center}, tr, r2, lo, hi) {
			want[o] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("collect: %d entries, brute force %d", len(got), len(want))
	}
	for i, pe := range got {
		if !want[pe.o] {
			t.Fatalf("collect included %s which cannot reach", pe.o)
		}
		if i > 0 && got[i-1].o >= pe.o {
			t.Fatal("collect output not ascending")
		}
	}
	if all := idx.collect(snap, center, math.Inf(1), lo, hi, nil); len(all) != len(oids) {
		t.Fatalf("infinite pool: %d entries, want %d", len(all), len(oids))
	}

	// kthDist2 against a brute-force sort of distances at lo.
	var d2s []float64
	for _, o := range oids {
		tr, _ := snap.Traj(o)
		p, err := tr.At(lo)
		if err != nil {
			t.Fatal(err)
		}
		d2s = append(d2s, p.Dist2(center))
	}
	sort.Float64s(d2s)
	for _, k := range []int{1, 7, 50} {
		got, live, ok := idx.kthDist2(center, lo, k)
		if !ok || live != len(oids) {
			t.Fatalf("kthDist2(%d): ok=%v live=%d", k, ok, live)
		}
		if got != d2s[k-1] {
			t.Fatalf("kthDist2(%d) = %v, want %v", k, got, d2s[k-1])
		}
	}
	if _, _, ok := idx.kthDist2(center, lo, len(oids)+1); ok {
		t.Fatal("kthDist2 beyond population must report !ok")
	}
}
