package rtree

// The tree itself: STR bulk loading over the boxes' min corners,
// linear-split insertion, and the two visits the serving path uses —
// by box (query.BeadIndex) and by segment (internal/sub).

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// RectItem is one box entry.
type RectItem struct {
	ID uint64
	R  Rect
}

type rnode struct {
	rect     Rect
	leaf     bool
	items    []RectItem
	children []*rnode
}

// RectTree is the box R-tree. Not safe for concurrent mutation.
type RectTree struct {
	root *rnode
	dim  int
	max  int
	n    int
}

// NewRectTree returns an empty tree for boxes of the given dimension.
func NewRectTree(dim, fanout int) *RectTree {
	if fanout < 4 {
		fanout = DefaultFanout
	}
	return &RectTree{dim: dim, max: fanout, root: &rnode{leaf: true}}
}

// Len returns the number of stored boxes.
func (t *RectTree) Len() int { return t.n }

// BulkRects builds a tree by STR packing over the boxes' min corners.
func BulkRects(items []RectItem, dim, fanout int) (*RectTree, error) {
	t := NewRectTree(dim, fanout)
	for _, it := range items {
		if it.R.Min.Dim() != dim || it.R.Max.Dim() != dim {
			return nil, fmt.Errorf("rtree: rect item %d has dim %d/%d, want %d",
				it.ID, it.R.Min.Dim(), it.R.Max.Dim(), dim)
		}
	}
	if len(items) == 0 {
		return t, nil
	}
	cp := make([]RectItem, len(items))
	copy(cp, items)
	leaves := strPackRects(cp, dim, t.max)
	t.n = len(items)
	level := leaves
	for len(level) > 1 {
		level = packRNodes(level, t.max)
	}
	t.root = level[0]
	return t, nil
}

// strPackRects tiles boxes (sorted by min corner) into leaves.
func strPackRects(items []RectItem, dim, fanout int) []*rnode {
	sort.Slice(items, func(i, j int) bool { return items[i].R.Min[0] < items[j].R.Min[0] })
	nLeaves := (len(items) + fanout - 1) / fanout
	nSlabs := 1
	for nSlabs*nSlabs < nLeaves {
		nSlabs++
	}
	slabSize := (len(items) + nSlabs - 1) / nSlabs
	var leaves []*rnode
	for s := 0; s < len(items); s += slabSize {
		e := s + slabSize
		if e > len(items) {
			e = len(items)
		}
		slab := items[s:e]
		if dim > 1 {
			sort.Slice(slab, func(i, j int) bool { return slab[i].R.Min[1] < slab[j].R.Min[1] })
		}
		for i := 0; i < len(slab); i += fanout {
			j := i + fanout
			if j > len(slab) {
				j = len(slab)
			}
			leaf := &rnode{leaf: true, items: append([]RectItem(nil), slab[i:j]...)}
			leaf.recalcRect()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packRNodes groups child nodes into parents.
func packRNodes(children []*rnode, fanout int) []*rnode {
	sort.Slice(children, func(i, j int) bool {
		return children[i].rect.Min[0] < children[j].rect.Min[0]
	})
	var parents []*rnode
	for i := 0; i < len(children); i += fanout {
		j := i + fanout
		if j > len(children) {
			j = len(children)
		}
		p := &rnode{children: append([]*rnode(nil), children[i:j]...)}
		p.recalcRect()
		parents = append(parents, p)
	}
	return parents
}

// recalcRect recomputes the node's box from its entries into the box's
// own storage. Copying the first entry's corners and expanding by the
// rest makes the comparisons cloning and expanding made, so the box is
// bit for bit the same. Rewriting in place is sound because a node's
// box storage is allocated here and nowhere else: items' and children's
// boxes are only copied into it (under BulkRects, Insert and the splits
// alike), and every new node, a split's sibling included, starts
// without storage.
func (n *rnode) recalcRect() {
	var first Rect
	switch {
	case !n.leaf:
		first = n.children[0].rect
	case len(n.items) > 0:
		first = n.items[0].R
	default:
		n.rect = Rect{}
		return
	}
	if len(n.rect.Min) != len(first.Min) {
		n.rect = Rect{Min: make(geom.Vec, len(first.Min)), Max: make(geom.Vec, len(first.Max))}
	}
	copy(n.rect.Min, first.Min)
	copy(n.rect.Max, first.Max)
	if n.leaf {
		for _, it := range n.items[1:] {
			n.rect.expand(it.R)
		}
		return
	}
	for _, c := range n.children[1:] {
		n.rect.expand(c.rect)
	}
}

// Insert adds one box.
func (t *RectTree) Insert(it RectItem) error {
	if it.R.Min.Dim() != t.dim || it.R.Max.Dim() != t.dim {
		return fmt.Errorf("rtree: insert rect dim %d/%d, want %d", it.R.Min.Dim(), it.R.Max.Dim(), t.dim)
	}
	split := t.insert(t.root, it)
	if split != nil {
		old := t.root
		t.root = &rnode{children: []*rnode{old, split}}
		t.root.recalcRect()
	}
	t.n++
	return nil
}

func (t *RectTree) insert(n *rnode, it RectItem) *rnode {
	if n.leaf {
		n.items = append(n.items, it)
		n.recalcRect()
		if len(n.items) > t.max {
			return t.splitLeaf(n)
		}
		return nil
	}
	best, bestGrow := 0, 0.0
	for i, c := range n.children {
		g := c.rect.enlargement(it.R)
		if i == 0 || g < bestGrow ||
			(g == bestGrow && c.rect.area() < n.children[best].rect.area()) { //modlint:allow floatcmp -- heuristic tie-break only; a missed tie costs nothing but balance
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

func (t *RectTree) splitLeaf(n *rnode) *rnode {
	axis := n.widestAxis()
	sort.Slice(n.items, func(i, j int) bool { return n.items[i].R.Min[axis] < n.items[j].R.Min[axis] })
	mid := len(n.items) / 2
	sib := &rnode{leaf: true, items: append([]RectItem(nil), n.items[mid:]...)}
	n.items = n.items[:mid]
	n.recalcRect()
	sib.recalcRect()
	return sib
}

func (t *RectTree) splitInterior(n *rnode) *rnode {
	axis := n.widestAxis()
	sort.Slice(n.children, func(i, j int) bool {
		return n.children[i].rect.Min[axis] < n.children[j].rect.Min[axis]
	})
	mid := len(n.children) / 2
	sib := &rnode{children: append([]*rnode(nil), n.children[mid:]...)}
	n.children = n.children[:mid]
	n.recalcRect()
	sib.recalcRect()
	return sib
}

func (n *rnode) widestAxis() int {
	axis, widest := 0, -1.0
	for i := range n.rect.Min {
		if w := n.rect.Max[i] - n.rect.Min[i]; w > widest {
			axis, widest = i, w
		}
	}
	return axis
}

// SegIntersectsRect reports whether the segment a→b touches r (slab
// clipping: intersect the segment's parameter interval [0,1] with the
// per-axis entry/exit intervals).
func SegIntersectsRect(a, b geom.Vec, r Rect) bool {
	tmin, tmax := 0.0, 1.0
	for i := range a {
		d := b[i] - a[i]
		if d == 0 { //modlint:allow floatcmp -- axis-parallel segment: exact zero means no motion on this axis
			if a[i] < r.Min[i] || a[i] > r.Max[i] {
				return false
			}
			continue
		}
		t1 := (r.Min[i] - a[i]) / d
		t2 := (r.Max[i] - a[i]) / d
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t1 > tmin {
			tmin = t1
		}
		if t2 < tmax {
			tmax = t2
		}
		if tmin > tmax {
			return false
		}
	}
	return true
}

// VisitSegment calls fn for every stored box the segment a→b touches.
// Returning false from fn stops the traversal early.
func (t *RectTree) VisitSegment(a, b geom.Vec, fn func(RectItem) bool) {
	if t.n == 0 {
		return
	}
	var walk func(n *rnode) bool
	walk = func(n *rnode) bool {
		if !SegIntersectsRect(a, b, n.rect) {
			return true
		}
		if n.leaf {
			for _, it := range n.items {
				if SegIntersectsRect(a, b, it.R) && !fn(it) {
					return false
				}
			}
			return true
		}
		for _, c := range n.children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// VisitRect calls fn for every stored box intersecting r (closed-box
// overlap: touching counts), in tree order. Returning false from fn
// stops the traversal early. The traversal itself performs no
// allocation — this is the broad-phase query shape of the uncertainty
// index (internal/query), where the query box is a ball's bounding box
// crossed with a time window.
func (t *RectTree) VisitRect(r Rect, fn func(RectItem) bool) {
	if t.n > 0 {
		visitRect(t.root, r, fn)
	}
}

func visitRect(n *rnode, r Rect, fn func(RectItem) bool) bool {
	if !n.rect.intersects(r) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.R.intersects(r) && !fn(it) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !visitRect(c, r, fn) {
			return false
		}
	}
	return true
}
