package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

func randRect(rng *rand.Rand, dim int) Rect {
	lo := make(geom.Vec, dim)
	hi := make(geom.Vec, dim)
	for i := 0; i < dim; i++ {
		a := rng.Float64()*200 - 100
		b := a + rng.Float64()*20
		lo[i], hi[i] = a, b
	}
	return Rect{Min: lo, Max: hi}
}

func randSeg(rng *rand.Rand, dim int) (geom.Vec, geom.Vec) {
	a := make(geom.Vec, dim)
	b := make(geom.Vec, dim)
	for i := 0; i < dim; i++ {
		a[i] = rng.Float64()*300 - 150
		b[i] = rng.Float64()*300 - 150
	}
	return a, b
}

// bruteSeg filters items by the same predicate the tree must implement.
func bruteSeg(items []RectItem, a, b geom.Vec) map[uint64]bool {
	hit := make(map[uint64]bool)
	for _, it := range items {
		if SegIntersectsRect(a, b, it.R) {
			hit[it.ID] = true
		}
	}
	return hit
}

func checkSegSearch(t *testing.T, tree *RectTree, items []RectItem, rng *rand.Rand, dim int) {
	t.Helper()
	for q := 0; q < 50; q++ {
		a, b := randSeg(rng, dim)
		want := bruteSeg(items, a, b)
		got := segmentHits(tree, a, b)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d hits, want %d", q, len(got), len(want))
		}
		for i, it := range got {
			if !want[it.ID] {
				t.Fatalf("query %d: spurious hit %d", q, it.ID)
			}
			if i > 0 && got[i-1].ID == it.ID {
				t.Fatalf("query %d: hit %d reported twice", q, it.ID)
			}
		}
	}
}

func TestRectTreeBulkSegmentSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 2, 3} {
		items := make([]RectItem, 300)
		for i := range items {
			items[i] = RectItem{ID: uint64(i), R: randRect(rng, dim)}
		}
		tree, err := BulkRects(items, dim, 8)
		if err != nil {
			t.Fatalf("dim %d bulk: %v", dim, err)
		}
		if tree.Len() != len(items) {
			t.Fatalf("dim %d: Len = %d, want %d", dim, tree.Len(), len(items))
		}
		checkSegSearch(t, tree, items, rng, dim)
	}
}

func TestRectTreeInsertSegmentSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dim := 2
	tree := NewRectTree(dim, 6)
	var items []RectItem
	for i := 0; i < 250; i++ {
		it := RectItem{ID: uint64(i), R: randRect(rng, dim)}
		if err := tree.Insert(it); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		items = append(items, it)
	}
	checkSegSearch(t, tree, items, rng, dim)
}

func TestRectTreeDimMismatch(t *testing.T) {
	tree := NewRectTree(2, 8)
	bad := RectItem{ID: 1, R: Rect{Min: geom.Vec{0}, Max: geom.Vec{1}}}
	if err := tree.Insert(bad); err == nil {
		t.Fatal("insert with wrong dimension accepted")
	}
	if _, err := BulkRects([]RectItem{bad}, 2, 8); err == nil {
		t.Fatal("bulk with wrong dimension accepted")
	}
}

func TestSegIntersectsRect(t *testing.T) {
	r := Rect{Min: geom.Vec{0, 0}, Max: geom.Vec{2, 2}}
	cases := []struct {
		a, b geom.Vec
		want bool
	}{
		{geom.Vec{-1, 1}, geom.Vec{3, 1}, true},    // straight through
		{geom.Vec{1, 1}, geom.Vec{1, 1}, true},     // point inside
		{geom.Vec{3, 3}, geom.Vec{3, 3}, false},    // point outside
		{geom.Vec{-1, -1}, geom.Vec{-1, 5}, false}, // parallel miss
		{geom.Vec{0, -1}, geom.Vec{0, 5}, true},    // along the edge
		{geom.Vec{-2, 0}, geom.Vec{0, -2}, false},  // corner miss (diagonal)
		{geom.Vec{-1, 1}, geom.Vec{1, 3}, true},    // clips the corner
		{geom.Vec{2.5, 1}, geom.Vec{5, 1}, false},  // starts past the box
	}
	for i, c := range cases {
		if got := SegIntersectsRect(c.a, c.b, r); got != c.want {
			t.Errorf("case %d: SegIntersectsRect(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestVisitSegmentEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]RectItem, 100)
	for i := range items {
		items[i] = RectItem{ID: uint64(i), R: randRect(rng, 2)}
	}
	tree, err := BulkRects(items, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	tree.VisitSegment(geom.Vec{-150, -150}, geom.Vec{150, 150}, func(RectItem) bool {
		n++
		return n < 3
	})
	if n > 3 {
		t.Fatalf("visit continued after callback returned false: %d calls", n)
	}
}

// TestNodeBoxesOwnTheirStorage: recalcRect rewrites a node's box in
// place, which is sound only while no other node, no item and no
// caller's box shares that storage. After a bulk load and enough inserts
// to split leaves and interior nodes, every node box must sit in storage
// of its own, each box must be bit for bit the clone-and-expand of its
// entries, and the caller's boxes must be untouched.
func TestNodeBoxesOwnTheirStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const dim = 3
	items := make([]RectItem, 300)
	for i := range items {
		items[i] = RectItem{ID: uint64(i), R: randRect(rng, dim)}
	}
	tree, err := BulkRects(items, dim, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(items); i < 900; i++ {
		it := RectItem{ID: uint64(i), R: randRect(rng, dim)}
		items = append(items, it)
		if err := tree.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]Rect, len(items))
	for i, it := range items {
		want[i] = Rect{Min: it.R.Min.Clone(), Max: it.R.Max.Clone()}
	}
	// One more round of inserts recomputes boxes along every path taken.
	for i := 0; i < 300; i++ {
		if err := tree.Insert(RectItem{ID: uint64(900 + i), R: randRect(rng, dim)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, it := range items {
		if !slices.Equal(it.R.Min, want[i].Min) || !slices.Equal(it.R.Max, want[i].Max) {
			t.Fatalf("item %d's box changed from %v to %v", i, want[i], it.R)
		}
	}

	owner := make(map[*float64]string)
	claim := func(v geom.Vec, who string) {
		if prev, ok := owner[&v[0]]; ok {
			t.Fatalf("%s shares its storage with %s", who, prev)
		}
		owner[&v[0]] = who
	}
	for i, it := range items {
		claim(it.R.Min, fmt.Sprintf("item %d's min corner", i))
		claim(it.R.Max, fmt.Sprintf("item %d's max corner", i))
	}
	nodes := 0
	var walk func(n *rnode)
	walk = func(n *rnode) {
		nodes++
		claim(n.rect.Min, fmt.Sprintf("node %d's min corner", nodes))
		claim(n.rect.Max, fmt.Sprintf("node %d's max corner", nodes))
		var boxes []Rect
		for _, it := range n.items {
			boxes = append(boxes, it.R)
		}
		for _, c := range n.children {
			boxes = append(boxes, c.rect)
			walk(c)
		}
		ref := Rect{Min: boxes[0].Min.Clone(), Max: boxes[0].Max.Clone()}
		for _, b := range boxes[1:] {
			ref.expand(b)
		}
		for d := 0; d < dim; d++ {
			if math.Float64bits(n.rect.Min[d]) != math.Float64bits(ref.Min[d]) ||
				math.Float64bits(n.rect.Max[d]) != math.Float64bits(ref.Max[d]) {
				t.Fatalf("node %d's box %v, the clone-and-expand of its entries gives %v", nodes, n.rect, ref)
			}
		}
	}
	walk(tree.root)
	if nodes < 100 {
		t.Fatalf("only %d nodes: the tree did not split enough to exercise the splits", nodes)
	}
}
