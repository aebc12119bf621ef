// Package rtree implements one R-tree over axis-aligned boxes: STR
// (sort-tile-recursive) bulk loading, linear-split insertion, visits by
// box and by segment, radius search, and best-first k-nearest-neighbor
// search by box distance.
//
// It serves four users:
//   - the Song–Roussopoulos [26] comparison baseline (internal/baseline,
//     experiment E7), which stores its stationary objects as degenerate
//     boxes (Min == Max) and re-issues radius and k-NN searches around
//     the moving query point. On a degenerate box the box distance is the
//     point distance, bit for bit;
//   - the broad phase of collision discovery (internal/collide), a radius
//     search over swept-extent centers, also stored as points;
//   - the space-time broad phase of the uncertainty index
//     (query.BeadIndex): one box per bead, queried with VisitRect;
//   - subscription routing (internal/sub): one box per candidate ball,
//     queried with VisitSegment.
//
// Split quality affects how many nodes a search visits, never what it
// returns (DESIGN.md, substitution 4). Deletions are the caller's:
// tombstones and a periodic rebuild keep the tree append-only.
package rtree

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"slices"

	"repro/internal/geom"
)

// Rect is an axis-aligned box.
type Rect struct {
	Min, Max geom.Vec
}

// NewRect validates corners.
func NewRect(min, max geom.Vec) (Rect, error) {
	if len(min) != len(max) {
		return Rect{}, errors.New("rtree: corner dimension mismatch")
	}
	for i := range min {
		if min[i] > max[i] {
			return Rect{}, fmt.Errorf("rtree: inverted rect on axis %d", i)
		}
	}
	return Rect{Min: min.Clone(), Max: max.Clone()}, nil
}

// intersects reports whether two rects overlap.
func (r Rect) intersects(o Rect) bool {
	for i := range r.Min {
		if r.Max[i] < o.Min[i] || o.Max[i] < r.Min[i] {
			return false
		}
	}
	return true
}

// expand grows r to cover o.
func (r *Rect) expand(o Rect) {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] {
			r.Min[i] = o.Min[i]
		}
		if o.Max[i] > r.Max[i] {
			r.Max[i] = o.Max[i]
		}
	}
}

// area returns the volume of r.
func (r Rect) area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// enlargement returns the area growth needed to cover o. The grown
// box's extent on each axis takes the same comparisons as expand, so
// the result is bit for bit that of expanding a copy of r.
func (r Rect) enlargement(o Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo, hi := r.Min[i], r.Max[i]
		if o.Min[i] < lo {
			lo = o.Min[i]
		}
		if o.Max[i] > hi {
			hi = o.Max[i]
		}
		a *= hi - lo
	}
	return a - r.area()
}

// dist2 returns the squared distance from p to the rect (0 if inside).
// On a degenerate rect it adds the same squares in the same axis order
// as geom.Vec.Dist2, so the two agree bit for bit.
func (r Rect) dist2(p geom.Vec) float64 {
	d := 0.0
	for i := range p {
		switch {
		case p[i] < r.Min[i]:
			x := r.Min[i] - p[i]
			d += x * x
		case p[i] > r.Max[i]:
			x := p[i] - r.Max[i]
			d += x * x
		}
	}
	return d
}

// DefaultFanout is the default maximum entries per node.
const DefaultFanout = 16

// SearchRadius returns the boxes within Euclidean distance rad of center
// (box distance, 0 inside a box), in ID order.
func (t *RectTree) SearchRadius(center geom.Vec, rad float64) []RectItem {
	if t.n == 0 {
		return nil
	}
	out := appendRadius(t.root, center, rad*rad, nil)
	slices.SortFunc(out, func(a, b RectItem) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

func appendRadius(n *rnode, center geom.Vec, r2 float64, dst []RectItem) []RectItem {
	if n.rect.dist2(center) > r2 {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.R.dist2(center) <= r2 {
				dst = append(dst, it)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = appendRadius(c, center, r2, dst)
	}
	return dst
}

// nnEntry is a best-first queue element: a node or an item.
type nnEntry struct {
	d2   float64
	n    *rnode
	item *RectItem
}

type nnQueue []nnEntry

func (q nnQueue) Len() int            { return len(q) }
func (q nnQueue) Less(i, j int) bool  { return q[i].d2 < q[j].d2 }
func (q nnQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x interface{}) { *q = append(*q, x.(nnEntry)) }
func (q *nnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// NearestK returns the k boxes nearest to center by box distance (fewer
// if the tree holds fewer), in increasing distance; boxes at equal
// distance come in no particular order.
func (t *RectTree) NearestK(center geom.Vec, k int) []RectItem {
	if t.n == 0 || k <= 0 {
		return nil
	}
	q := &nnQueue{{d2: t.root.rect.dist2(center), n: t.root}}
	var out []RectItem
	for q.Len() > 0 && len(out) < k {
		e := heap.Pop(q).(nnEntry)
		switch {
		case e.item != nil:
			out = append(out, *e.item)
		case e.n.leaf:
			for i := range e.n.items {
				it := &e.n.items[i]
				heap.Push(q, nnEntry{d2: it.R.dist2(center), item: it})
			}
		default:
			for _, c := range e.n.children {
				heap.Push(q, nnEntry{d2: c.rect.dist2(center), n: c})
			}
		}
	}
	return out
}
