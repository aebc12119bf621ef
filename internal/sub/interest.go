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

// ballRadius is the padded radius of the ball every trajectory that
// reaches the pool threshold r2 must enter.
func ballRadius(r2 float64) float64 {
	return math.Sqrt(query.Inflate(r2))*(1+padRel) + padAbs
}

// ballRect is the axis-aligned box of the ball with squared radius r2
// (inflated) around c.
func ballRect(c geom.Vec, r2 float64) rtree.Rect {
	r := ballRadius(r2)
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

// visitAll calls fn for every registered subscription (used by
// terminate updates, which have no motion segment of their own — the
// routing segment comes from the object's trajectory instead).
func (ix *interestIndex) visitAll(fn func(*subscription)) {
	for _, s := range ix.entries {
		fn(s)
	}
	for _, s := range ix.globals {
		fn(s)
	}
}

// poolIndex accelerates pool construction at Subscribe time. Built once
// per database snapshot generation: every trajectory turn is <= the
// snapshot time, so from any lo past it an object follows its last
// piece forever — stationary objects (zero last velocity) go into a
// point R-tree, the rest into a movers list that each Subscribe scans
// with the exact segment test. With mostly-stationary populations this
// makes a Subscribe O(pool + movers + log N) instead of O(N).
type poolIndex struct {
	dim     int
	tree    *rtree.Tree
	movers  []poolEntry
	objects []poolEntry // every live object, for infinite pools
}

type poolEntry struct {
	o  mod.OID
	tr trajectory.Trajectory
}

// buildPoolIndex indexes the objects of snap that are alive at or after
// lo. Positions of stationary objects are their (constant) last-piece
// locations.
func buildPoolIndex(snap *mod.DB, lo float64) *poolIndex {
	dim := snap.Dim()
	ix := &poolIndex{dim: dim}
	var pts []rtree.Item
	for o, tr := range snap.Trajectories() {
		if !tr.IsDefined() || tr.End() <= lo {
			continue
		}
		ix.objects = append(ix.objects, poolEntry{o: o, tr: tr})
		last, err := tr.LastPiece()
		if err != nil {
			continue
		}
		if last.A.IsZero() {
			pts = append(pts, rtree.Item{ID: uint64(o), P: last.B})
		} else {
			ix.movers = append(ix.movers, poolEntry{o: o, tr: tr})
		}
	}
	sort.Slice(ix.objects, func(i, j int) bool { return ix.objects[i].o < ix.objects[j].o })
	t, err := rtree.Bulk(pts, dim, rtree.DefaultFanout)
	if err != nil {
		panic("sub: pool index build: " + err.Error())
	}
	ix.tree = t
	return ix
}

// collect appends (ascending by OID) every object whose trajectory can
// reach the ball (c, r2) during [lo, hi]. r2 = +Inf yields all live
// objects.
func (ix *poolIndex) collect(snap *mod.DB, c geom.Vec, r2, lo, hi float64, dst []poolEntry) []poolEntry {
	if math.IsInf(r2, 1) {
		return append(dst, ix.objects...)
	}
	base := len(dst)
	var f gdist.GDistance = gdist.PointSq{Point: c} // boxed once, not per reach test
	// VisitRadius streams matches without materializing a result slice
	// (SearchRadius would allocate one per Subscribe).
	ix.tree.VisitRadius(c, ballRadius(r2), func(it rtree.Item) bool {
		o := mod.OID(it.ID)
		tr, err := snap.Traj(o)
		if err != nil {
			return true
		}
		// The box-radius search over-approximates; confirm exactly.
		if reaches(f, tr, r2, lo, hi) {
			dst = append(dst, poolEntry{o: o, tr: tr})
		}
		return true
	})
	for _, m := range ix.movers {
		if reaches(f, m.tr, r2, lo, hi) {
			dst = append(dst, m)
		}
	}
	tail := dst[base:]
	sort.Slice(tail, func(i, j int) bool { return tail[i].o < tail[j].o })
	return dst
}

// kthDist2 returns the squared distance of the k-th nearest live object
// to c at time lo, and the number of live objects considered. When
// fewer than k objects are alive, ok is false.
func (ix *poolIndex) kthDist2(c geom.Vec, lo float64, k int) (d2 float64, live int, ok bool) {
	live = len(ix.objects)
	if live < k {
		return 0, live, false
	}
	d2s := make([]float64, 0, k+len(ix.movers))
	for _, it := range ix.tree.NearestK(c, k) {
		d2s = append(d2s, it.P.Dist2(c))
	}
	for _, m := range ix.movers {
		p, err := m.tr.At(lo)
		if err != nil {
			// Mover starts strictly after lo cannot happen (turns <= snapshot
			// time); a terminated-by-lo object was filtered at build.
			continue
		}
		d2s = append(d2s, p.Dist2(c))
	}
	sort.Float64s(d2s)
	return d2s[k-1], live, true
}
