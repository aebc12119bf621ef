// Package rtree implements an R-tree over static points: STR (sort-tile-
// recursive) bulk loading, quadratic-cost linear-split insertion, range
// search, radius search, and best-first k-nearest-neighbor search.
//
// It is the substrate for the Song–Roussopoulos [26] comparison baseline
// (experiment E7): that algorithm stores the stationary objects in an
// R*-tree and re-issues range searches around the moving query point.
// Only point data is needed for the reproduction, which keeps the
// structure simple; split quality does not affect the correctness
// comparison being reproduced (see DESIGN.md, substitution 4).
package rtree

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Item is a point entry.
type Item struct {
	ID uint64
	P  geom.Vec
}

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

// contains reports whether p lies in r.
func (r Rect) contains(p geom.Vec) bool {
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
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

// enlargement returns the area growth needed to cover o.
func (r Rect) enlargement(o Rect) float64 {
	grown := Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
	grown.expand(o)
	return grown.area() - r.area()
}

// dist2 returns the squared distance from p to the rect (0 if inside).
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

// pointRect is the degenerate rect of a point.
func pointRect(p geom.Vec) Rect { return Rect{Min: p, Max: p} }

type node struct {
	rect     Rect
	leaf     bool
	items    []Item  // leaf
	children []*node // interior
}

// Tree is the R-tree. Not safe for concurrent mutation.
type Tree struct {
	root *node
	dim  int
	max  int
	n    int
}

// DefaultFanout is the default maximum entries per node.
const DefaultFanout = 16

// New returns an empty tree for points of the given dimension.
func New(dim, fanout int) *Tree {
	if fanout < 4 {
		fanout = DefaultFanout
	}
	return &Tree{dim: dim, max: fanout, root: &node{leaf: true}}
}

// Len returns the number of stored points.
func (t *Tree) Len() int { return t.n }

// Bulk builds a tree by STR packing: sort by x, tile into vertical slabs,
// sort each slab by y, pack runs of `fanout` points per leaf; repeat
// upward. For dimensions above 2 the remaining axes cycle.
func Bulk(items []Item, dim, fanout int) (*Tree, error) {
	t := New(dim, fanout)
	for _, it := range items {
		if it.P.Dim() != dim {
			return nil, fmt.Errorf("rtree: item %d has dim %d, want %d", it.ID, it.P.Dim(), dim)
		}
	}
	if len(items) == 0 {
		return t, nil
	}
	cp := make([]Item, len(items))
	copy(cp, items)
	leaves := strPack(cp, dim, t.max)
	t.n = len(items)
	// Build interior levels by packing child rects the same way.
	level := leaves
	for len(level) > 1 {
		level = packNodes(level, t.max)
	}
	t.root = level[0]
	return t, nil
}

// strPack tiles sorted points into leaves.
func strPack(items []Item, dim, fanout int) []*node {
	sort.Slice(items, func(i, j int) bool { return items[i].P[0] < items[j].P[0] })
	nLeaves := (len(items) + fanout - 1) / fanout
	nSlabs := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	slabSize := (len(items) + nSlabs - 1) / nSlabs
	var leaves []*node
	for s := 0; s < len(items); s += slabSize {
		e := s + slabSize
		if e > len(items) {
			e = len(items)
		}
		slab := items[s:e]
		if dim > 1 {
			sort.Slice(slab, func(i, j int) bool { return slab[i].P[1] < slab[j].P[1] })
		}
		for i := 0; i < len(slab); i += fanout {
			j := i + fanout
			if j > len(slab) {
				j = len(slab)
			}
			leaf := &node{leaf: true, items: append([]Item(nil), slab[i:j]...)}
			leaf.recalcRect()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packNodes groups child nodes into parents along their rect centers.
func packNodes(children []*node, fanout int) []*node {
	sort.Slice(children, func(i, j int) bool {
		return children[i].rect.Min[0] < children[j].rect.Min[0]
	})
	var parents []*node
	for i := 0; i < len(children); i += fanout {
		j := i + fanout
		if j > len(children) {
			j = len(children)
		}
		p := &node{children: append([]*node(nil), children[i:j]...)}
		p.recalcRect()
		parents = append(parents, p)
	}
	return parents
}

func (n *node) recalcRect() {
	if n.leaf {
		if len(n.items) == 0 {
			n.rect = Rect{}
			return
		}
		r := pointRect(n.items[0].P.Clone())
		r.Max = n.items[0].P.Clone()
		for _, it := range n.items[1:] {
			r.expand(pointRect(it.P))
		}
		n.rect = r
		return
	}
	r := Rect{Min: n.children[0].rect.Min.Clone(), Max: n.children[0].rect.Max.Clone()}
	for _, c := range n.children[1:] {
		r.expand(c.rect)
	}
	n.rect = r
}

// Insert adds one point.
func (t *Tree) Insert(it Item) error {
	if it.P.Dim() != t.dim {
		return fmt.Errorf("rtree: insert dim %d, want %d", it.P.Dim(), t.dim)
	}
	split := t.insert(t.root, it)
	if split != nil {
		old := t.root
		t.root = &node{children: []*node{old, split}}
		t.root.recalcRect()
	}
	t.n++
	return nil
}

// insert descends to the best leaf; returns a new sibling on split.
func (t *Tree) insert(n *node, it Item) *node {
	if n.leaf {
		n.items = append(n.items, it)
		n.recalcRect()
		if len(n.items) > t.max {
			return t.splitLeaf(n)
		}
		return nil
	}
	// Choose the child needing least enlargement.
	best, bestGrow := 0, math.Inf(1)
	for i, c := range n.children {
		g := c.rect.enlargement(pointRect(it.P))
		if g < bestGrow || (g == bestGrow && c.rect.area() < n.children[best].rect.area()) { //modlint:allow floatcmp -- heuristic tie-break only; a missed tie costs nothing but balance
			best, bestGrow = i, g
		}
	}
	split := t.insert(n.children[best], it)
	n.recalcRect()
	if split != nil {
		n.children = append(n.children, split)
		n.recalcRect()
		if len(n.children) > t.max {
			return t.splitInterior(n)
		}
	}
	return nil
}

// splitLeaf splits along the axis with the widest spread.
func (t *Tree) splitLeaf(n *node) *node {
	axis := n.widestAxis()
	sort.Slice(n.items, func(i, j int) bool { return n.items[i].P[axis] < n.items[j].P[axis] })
	mid := len(n.items) / 2
	sib := &node{leaf: true, items: append([]Item(nil), n.items[mid:]...)}
	n.items = n.items[:mid]
	n.recalcRect()
	sib.recalcRect()
	return sib
}

func (t *Tree) splitInterior(n *node) *node {
	axis := n.widestAxis()
	sort.Slice(n.children, func(i, j int) bool {
		return n.children[i].rect.Min[axis] < n.children[j].rect.Min[axis]
	})
	mid := len(n.children) / 2
	sib := &node{children: append([]*node(nil), n.children[mid:]...)}
	n.children = n.children[:mid]
	n.recalcRect()
	sib.recalcRect()
	return sib
}

func (n *node) widestAxis() int {
	axis, widest := 0, -1.0
	for i := range n.rect.Min {
		if w := n.rect.Max[i] - n.rect.Min[i]; w > widest {
			axis, widest = i, w
		}
	}
	return axis
}

// sortItemsByID orders a result run by ID. slices.SortFunc with a
// non-capturing comparator keeps the append-into search variants free
// of per-call sort allocations (sort.Slice's interface boxing).
func sortItemsByID(s []Item) {
	slices.SortFunc(s, func(a, b Item) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// SearchRange returns all points inside the rect, in ID order.
func (t *Tree) SearchRange(r Rect) []Item {
	return t.SearchRangeAppend(r, nil)
}

// SearchRangeAppend appends every point inside the rect to dst and
// returns the extended slice, with the appended run sorted by ID — the
// recycled-storage variant of SearchRange: a caller that keeps its
// result slice between queries allocates only when a query outgrows it.
func (t *Tree) SearchRangeAppend(r Rect, dst []Item) []Item {
	if t.n == 0 {
		return dst
	}
	n := len(dst)
	dst = appendRange(t.root, r, dst)
	sortItemsByID(dst[n:])
	return dst
}

func appendRange(n *node, r Rect, dst []Item) []Item {
	if !n.rect.intersects(r) {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if r.contains(it.P) {
				dst = append(dst, it)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = appendRange(c, r, dst)
	}
	return dst
}

// SearchRadius returns all points within Euclidean distance rad of
// center, in ID order.
func (t *Tree) SearchRadius(center geom.Vec, rad float64) []Item {
	return t.SearchRadiusAppend(center, rad, nil)
}

// SearchRadiusAppend appends all points within rad of center to dst and
// returns the extended slice, with the appended run sorted by ID (see
// SearchRangeAppend).
func (t *Tree) SearchRadiusAppend(center geom.Vec, rad float64, dst []Item) []Item {
	if t.n == 0 {
		return dst
	}
	n := len(dst)
	dst = appendRadius(t.root, center, rad*rad, dst)
	sortItemsByID(dst[n:])
	return dst
}

func appendRadius(n *node, center geom.Vec, r2 float64, dst []Item) []Item {
	if n.rect.dist2(center) > r2 {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.P.Dist2(center) <= r2 {
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
	n    *node
	item *Item
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

// NearestK returns the k nearest points to center (fewer if the tree is
// smaller), ordered by increasing distance with ID tie-break.
func (t *Tree) NearestK(center geom.Vec, k int) []Item {
	if t.n == 0 || k <= 0 {
		return nil
	}
	q := &nnQueue{{d2: t.root.rect.dist2(center), n: t.root}}
	var out []Item
	for q.Len() > 0 && len(out) < k {
		e := heap.Pop(q).(nnEntry)
		switch {
		case e.item != nil:
			out = append(out, *e.item)
		case e.n.leaf:
			for i := range e.n.items {
				it := e.n.items[i]
				heap.Push(q, nnEntry{d2: it.P.Dist2(center), item: &it})
			}
		default:
			for _, c := range e.n.children {
				heap.Push(q, nnEntry{d2: c.rect.dist2(center), n: c})
			}
		}
	}
	return out
}
