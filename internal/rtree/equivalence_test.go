package rtree

// Property test: STR bulk loading and one-at-a-time insertion must be
// two constructions of the SAME search structure, as observed through
// the box visits. The trees differ internally (packing vs split
// heuristics), so the equivalence is over results: on random workloads,
// VisitRect, VisitSegment and SearchRadius report identical item sets.
// This is the contract the uncertainty broad phase (internal/query) leans
// on when it STR-builds at first sync and inserts incrementally
// afterwards. The point searches are also checked against brute force in
// rtree_test.go.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

func eqRandVec(rng *rand.Rand, dim int, scale float64) geom.Vec {
	v := make(geom.Vec, dim)
	for i := range v {
		v[i] = scale * (rng.Float64() - 0.5)
	}
	return v
}

func eqRandRect(rng *rand.Rand, dim int, scale float64) Rect {
	lo := eqRandVec(rng, dim, scale)
	hi := lo.Clone()
	for i := range hi {
		hi[i] += scale * 0.3 * rng.Float64()
	}
	return Rect{Min: lo, Max: hi}
}

// byID sorts a visit's items into ID order.
func byID(items []RectItem) []RectItem {
	slices.SortFunc(items, func(a, b RectItem) int { return cmp.Compare(a.ID, b.ID) })
	return items
}

// rectHits collects the items VisitRect reports, in ID order.
func rectHits(t *RectTree, r Rect) []RectItem {
	var out []RectItem
	t.VisitRect(r, func(it RectItem) bool { out = append(out, it); return true })
	return byID(out)
}

// segmentHits collects the items VisitSegment reports, in ID order.
func segmentHits(t *RectTree, a, b geom.Vec) []RectItem {
	var out []RectItem
	t.VisitSegment(a, b, func(it RectItem) bool { out = append(out, it); return true })
	return byID(out)
}

// Points stored as degenerate boxes: a VisitRect is a range search and
// SearchRadius is a point radius search; both constructions agree.
func TestBulkVsInsertSearchEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		dim := 2 + rng.Intn(2)
		n := rng.Intn(400)
		items := make([]RectItem, n)
		for i := range items {
			p := eqRandVec(rng, dim, 100)
			items[i] = RectItem{ID: uint64(i + 1), R: Rect{Min: p, Max: p}}
		}
		bulk, err := BulkRects(items, dim, DefaultFanout)
		if err != nil {
			t.Fatalf("trial %d: BulkRects: %v", trial, err)
		}
		inc := NewRectTree(dim, DefaultFanout)
		for _, it := range items {
			if err := inc.Insert(it); err != nil {
				t.Fatalf("trial %d: Insert: %v", trial, err)
			}
		}
		if bulk.Len() != n || inc.Len() != n {
			t.Fatalf("trial %d: Len %d/%d, want %d", trial, bulk.Len(), inc.Len(), n)
		}
		for q := 0; q < 25; q++ {
			r := eqRandRect(rng, dim, 120)
			br := rectHits(bulk, r)
			ir := rectHits(inc, r)
			if fmt.Sprint(br) != fmt.Sprint(ir) {
				t.Fatalf("trial %d query %d: range visit diverges:\nbulk %v\ninc  %v", trial, q, br, ir)
			}

			c := eqRandVec(rng, dim, 120)
			rad := 5 + 40*rng.Float64()
			bs := bulk.SearchRadius(c, rad)
			is := inc.SearchRadius(c, rad)
			if fmt.Sprint(bs) != fmt.Sprint(is) {
				t.Fatalf("trial %d query %d: SearchRadius diverges", trial, q)
			}
		}
	}
}

func TestBulkVsInsertRectSearchEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(9500 + trial)))
		dim := 2 + rng.Intn(2)
		n := rng.Intn(300)
		items := make([]RectItem, n)
		for i := range items {
			items[i] = RectItem{ID: uint64(i + 1), R: eqRandRect(rng, dim, 100)}
		}
		bulk, err := BulkRects(items, dim, DefaultFanout)
		if err != nil {
			t.Fatalf("trial %d: BulkRects: %v", trial, err)
		}
		inc := NewRectTree(dim, DefaultFanout)
		for _, it := range items {
			if err := inc.Insert(it); err != nil {
				t.Fatalf("trial %d: Insert: %v", trial, err)
			}
		}
		for q := 0; q < 25; q++ {
			r := eqRandRect(rng, dim, 120)
			br := rectHits(bulk, r)
			ir := rectHits(inc, r)
			if fmt.Sprint(br) != fmt.Sprint(ir) {
				t.Fatalf("trial %d query %d: VisitRect diverges:\nbulk %v\ninc  %v", trial, q, br, ir)
			}
			// Early stop: the visitor must halt after the first match.
			if len(br) > 1 {
				visited := 0
				bulk.VisitRect(r, func(RectItem) bool { visited++; return false })
				if visited != 1 {
					t.Fatalf("trial %d query %d: early-stop visit saw %d items", trial, q, visited)
				}
			}

			a, b := eqRandVec(rng, dim, 120), eqRandVec(rng, dim, 120)
			if fmt.Sprint(segmentHits(bulk, a, b)) != fmt.Sprint(segmentHits(inc, a, b)) {
				t.Fatalf("trial %d query %d: VisitSegment diverges", trial, q)
			}
		}
	}
}
