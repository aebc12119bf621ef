package rtree

// Property test: STR bulk loading and one-at-a-time insertion must be
// two constructions of the SAME search structure, as observed through
// every query API. The trees differ internally (packing vs split
// heuristics), so the equivalence is over results: on random workloads,
// range/radius/rect searches and their append/visitor variants return
// identical item sets in identical (ID) order. This is the contract the
// uncertainty broad phase (internal/query) leans on when it STR-builds
// at first sync and inserts incrementally afterwards.

import (
	"fmt"
	"math/rand"
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

func TestBulkVsInsertSearchEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		dim := 2 + rng.Intn(2)
		n := rng.Intn(400)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: uint64(i + 1), P: eqRandVec(rng, dim, 100)}
		}
		bulk, err := Bulk(items, dim, DefaultFanout)
		if err != nil {
			t.Fatalf("trial %d: Bulk: %v", trial, err)
		}
		inc := New(dim, DefaultFanout)
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
			br := bulk.SearchRange(r)
			ir := inc.SearchRange(r)
			if fmt.Sprint(br) != fmt.Sprint(ir) {
				t.Fatalf("trial %d query %d: SearchRange diverges:\nbulk %v\ninc  %v", trial, q, br, ir)
			}
			// The append variant must agree with the allocating one and
			// respect pre-existing slice contents.
			pre := []Item{{ID: 777}}
			ba := bulk.SearchRangeAppend(r, pre)
			if len(ba) != 1+len(br) || ba[0].ID != 777 || fmt.Sprint(ba[1:]) != fmt.Sprint(br) {
				t.Fatalf("trial %d query %d: SearchRangeAppend mismatch", trial, q)
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
			br := bulk.SearchRect(r)
			ir := inc.SearchRect(r)
			if fmt.Sprint(br) != fmt.Sprint(ir) {
				t.Fatalf("trial %d query %d: SearchRect diverges:\nbulk %v\ninc  %v", trial, q, br, ir)
			}
			visited := 0
			bulk.VisitRect(r, func(RectItem) bool { visited++; return true })
			if visited != len(br) {
				t.Fatalf("trial %d query %d: VisitRect saw %d, SearchRect %d", trial, q, visited, len(br))
			}
			// Early stop: the visitor must halt after the first match.
			if len(br) > 1 {
				visited = 0
				bulk.VisitRect(r, func(RectItem) bool { visited++; return false })
				if visited != 1 {
					t.Fatalf("trial %d query %d: early-stop visit saw %d items", trial, q, visited)
				}
			}

			a, b := eqRandVec(rng, dim, 120), eqRandVec(rng, dim, 120)
			if fmt.Sprint(bulk.SearchSegment(a, b)) != fmt.Sprint(inc.SearchSegment(a, b)) {
				t.Fatalf("trial %d query %d: SearchSegment diverges", trial, q)
			}
		}
	}
}
