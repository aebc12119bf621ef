package rtree

// Pins fanout normalization, the stability of ID-sorted runs under
// duplicate IDs, and that bulk-loading nothing yields a working tree.

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestFanoutNormalizationAndDuplicateIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tree := NewRectTree(2, 2) // fanout 2 normalizes, and the tree grows interior levels
	if tree.max != DefaultFanout {
		t.Fatalf("fanout 2 normalized to %d, want %d", tree.max, DefaultFanout)
	}
	n := 500
	for i := 0; i < n; i++ {
		p := geom.Of(rng.Float64()*100, rng.Float64()*100)
		if err := tree.Insert(RectItem{ID: uint64(i), R: Rect{Min: p, Max: p}}); err != nil {
			t.Fatal(err)
		}
	}
	all := Rect{Min: geom.Of(-1, -1), Max: geom.Of(101, 101)}

	if got := rectHits(tree, all); len(got) != n {
		t.Fatalf("VisitRect over everything returned %d of %d items", len(got), n)
	}

	// Duplicate IDs are allowed in a result run; the sort must not
	// drop or reorder them into an invalid sequence.
	dup := NewRectTree(2, 0)
	for i := 0; i < 6; i++ {
		p := geom.Of(float64(i), 0)
		if err := dup.Insert(RectItem{ID: uint64(i % 2), R: Rect{Min: p, Max: p}}); err != nil {
			t.Fatal(err)
		}
	}
	got := dup.SearchRadius(geom.Of(2.5, 0), 3)
	if len(got) != 6 {
		t.Fatalf("duplicate-ID search returned %d of 6 items", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].ID > got[i].ID {
			t.Fatalf("run not ID-sorted at %d: %d after %d", i, got[i].ID, got[i-1].ID)
		}
	}

	// Bulk-loading zero boxes yields a working empty tree.
	empty, err := BulkRects(nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty bulk load has Len %d", empty.Len())
	}
	empty.VisitRect(all, func(RectItem) bool { t.Fatal("visit on empty tree"); return false })
}
