package rtree

import (
	"math/rand"
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
