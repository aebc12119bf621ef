package sub

import (
	"math"
	"sort"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/trajectory"
)

// padRel and padAbs pad interest-box half-widths so the box strictly
// contains the candidate ball even after the rounding in sqrt and the
// corner subtractions. The box test is a conservative pre-filter; the
// exact reach test (query.Reaches) runs behind it.
const (
	padRel = 1e-9
	padAbs = 1e-9
)

// ballRect is the axis-aligned box of the ball every trajectory that
// reaches the pool threshold r2 must enter: squared radius r2
// (inflated) around c, padded.
func ballRect(c geom.Vec, r2 float64) rtree.Rect {
	r := math.Sqrt(query.Inflate(r2))*(1+padRel) + padAbs
	lo := make(geom.Vec, len(c))
	hi := make(geom.Vec, len(c))
	for i, x := range c {
		lo[i] = x - r
		hi[i] = x + r
	}
	return rtree.Rect{Min: lo, Max: hi}
}

// interestIndex routes updates to subscriptions: a box R-tree over the
// candidate balls of finite-pool subscriptions, plus a side set of
// "global" subscriptions (infinite pool radius) that see every update.
// The R-tree is append-only; retiring an entry (pool refresh changes
// the ball, subscription ends) just drops it from the id map, and the
// tree is rebuilt from the live entries once tombstones outnumber them.
type interestIndex struct {
	dim     int
	tree    *rtree.RectTree
	entries map[uint64]*subscription // box id -> live owner
	globals map[uint64]*subscription // sid -> subscription with infinite pool
	dead    int
	nextBox uint64
}

func newInterestIndex(dim int) *interestIndex {
	return &interestIndex{
		dim:     dim,
		tree:    rtree.NewRectTree(dim, rtree.DefaultFanout),
		entries: make(map[uint64]*subscription),
		globals: make(map[uint64]*subscription),
	}
}

// add registers s under its current pool radius and remembers the box
// id on the subscription for later retirement.
func (ix *interestIndex) add(s *subscription) {
	if math.IsInf(s.poolR2, 1) {
		ix.globals[s.sid] = s
		s.boxID = 0
		return
	}
	ix.nextBox++
	s.boxID = ix.nextBox
	ix.entries[s.boxID] = s
	// Insert only fails on a dimension mismatch, which validate rules out.
	_ = ix.tree.Insert(rtree.RectItem{ID: s.boxID, R: ballRect(s.center, s.poolR2)})
}

// remove retires s's current registration (tree entry or global set).
func (ix *interestIndex) remove(s *subscription) {
	if math.IsInf(s.poolR2, 1) {
		delete(ix.globals, s.sid)
		return
	}
	if _, ok := ix.entries[s.boxID]; ok {
		delete(ix.entries, s.boxID)
		ix.dead++
	}
	if ix.dead > 16 && ix.dead > len(ix.entries) {
		ix.rebuild()
	}
}

// rebuild compacts tombstones away with an STR bulk load.
func (ix *interestIndex) rebuild() {
	items := make([]rtree.RectItem, 0, len(ix.entries))
	for id, s := range ix.entries {
		items = append(items, rtree.RectItem{ID: id, R: ballRect(s.center, s.poolR2)})
	}
	t, err := rtree.BulkRects(items, ix.dim, rtree.DefaultFanout)
	if err != nil {
		// Entries were validated on the way in; a failure here means the
		// index is corrupt and silently degrading routing would lose
		// deltas. Fail loudly.
		panic("sub: interest index rebuild: " + err.Error())
	}
	ix.tree = t
	ix.dead = 0
}

// visitSegment calls fn for every subscription whose candidate box the
// motion segment a→b touches, then for every global subscription. A
// subscription can be reported once per registration; callers dedup
// with epoch stamps.
func (ix *interestIndex) visitSegment(a, b geom.Vec, fn func(*subscription)) {
	ix.tree.VisitSegment(a, b, func(it rtree.RectItem) bool {
		if s, ok := ix.entries[it.ID]; ok {
			fn(s)
		}
		return true
	})
	for _, s := range ix.globals {
		fn(s)
	}
}

// candidates picks a subscription's pool from the per-shard epoch
// snapshots by the bounded sweep's own rule: the threshold is the rank
// ladder's (query.Threshold) for what the evaluator reads (b) on the
// given rung, over the starting values at lo of every object alive past
// lo, and the pool is every such object whose curve reaches it during
// [lo, hi] (query.Reaches). lo is just past the snapshots' last update,
// so each starting value lies on its object's last piece. The pool is a
// map because Engine.Seed takes one (and seeds in ascending OID order).
func candidates(snaps []*mod.Snap, f gdist.GDistance, c geom.Vec, b query.Bound, rung int, lo, hi float64) (map[mod.OID]trajectory.Trajectory, float64) {
	live := func(tr trajectory.Trajectory) bool { return tr.IsDefined() && tr.End() > lo }
	var firsts []float64
	if b.First > 0 {
		for _, sn := range snaps {
			for _, tr := range sn.Trajectories() {
				if !live(tr) {
					continue
				}
				if p, err := tr.At(lo); err == nil {
					firsts = append(firsts, p.Dist2(c))
				}
			}
		}
		sort.Float64s(firsts)
	}
	thr := query.Threshold(b, firsts, rung)
	pool := make(map[mod.OID]trajectory.Trajectory)
	for _, sn := range snaps {
		for o, tr := range sn.Trajectories() {
			if live(tr) && reaches(f, tr, thr, lo, hi) {
				pool[o] = tr
			}
		}
	}
	return pool, thr
}
