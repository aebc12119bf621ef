package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// randPoint draws a point: on the integer grid [0,8)^dim, where
// duplicate points and equal distances are common, or anywhere in
// [0,1000)^dim.
func randPoint(rng *rand.Rand, dim int, grid bool) geom.Vec {
	p := make(geom.Vec, dim)
	for i := range p {
		if grid {
			p[i] = float64(rng.Intn(8))
		} else {
			p[i] = rng.Float64() * 1000
		}
	}
	return p
}

// randPointItems draws n points in [0,1000)^2, stored as degenerate boxes.
func randPointItems(rng *rand.Rand, n int) []RectItem {
	items := make([]RectItem, n)
	for i := range items {
		p := randPoint(rng, 2, false)
		items[i] = RectItem{ID: uint64(i + 1), R: Rect{Min: p, Max: p}}
	}
	return items
}

func TestInsertAndRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := NewRectTree(2, 8)
	items := randPointItems(rng, 300)
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 300 {
		t.Fatalf("Len = %d", tr.Len())
	}
	center := geom.Of(500, 500)
	got := tr.SearchRadius(center, 150)
	var want []uint64
	for _, it := range items {
		if it.R.Min.Dist(center) <= 150 {
			want = append(want, it.ID)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("radius: %d vs brute %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i] {
			t.Fatalf("radius mismatch at %d", i)
		}
	}
	p := geom.Of(1, 2, 3)
	if err := tr.Insert(RectItem{ID: 9999, R: Rect{Min: p, Max: p}}); err == nil {
		t.Error("wrong-dimension insert accepted")
	}
}

func TestNearestK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randPointItems(rng, 400)
	tr, err := BulkRects(items, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 20; probe++ {
		center := geom.Of(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(10)
		got := tr.NearestK(center, k)
		d2 := make([]float64, len(items))
		for i, it := range items {
			d2[i] = it.R.Min.Dist2(center)
		}
		slices.Sort(d2)
		if len(got) != k {
			t.Fatalf("NearestK returned %d, want %d", len(got), k)
		}
		for i := 0; i < k; i++ {
			if got[i].R.Min.Dist2(center) != d2[i] {
				t.Fatalf("probe %d rank %d: got %v (d2=%g), want d2=%g",
					probe, i, got[i], got[i].R.Min.Dist2(center), d2[i])
			}
		}
	}
	if got := tr.NearestK(geom.Of(0, 0), 0); got != nil {
		t.Error("k=0 should return nil")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := NewRectTree(2, 16)
	if got := tr.NearestK(geom.Of(0, 0), 3); len(got) != 0 {
		t.Error("NN on empty tree")
	}
	r, _ := NewRect(geom.Of(0, 0), geom.Of(1, 1))
	if got := rectHits(tr, r); len(got) != 0 {
		t.Error("rect visit on empty tree")
	}
	if got := tr.SearchRadius(geom.Of(0, 0), 5); len(got) != 0 {
		t.Error("radius on empty tree")
	}
	empty, err := BulkRects(nil, 2, 16)
	if err != nil || empty.Len() != 0 {
		t.Error("empty bulk")
	}
}

func TestBulkEqualsInsertResults(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := randPointItems(rng, 200)
	bulk, _ := BulkRects(items, 2, 8)
	inc := NewRectTree(2, 8)
	for _, it := range items {
		_ = inc.Insert(it)
	}
	for probe := 0; probe < 10; probe++ {
		c := geom.Of(rng.Float64()*1000, rng.Float64()*1000)
		a := bulk.SearchRadius(c, 200)
		b := inc.SearchRadius(c, 200)
		if len(a) != len(b) {
			t.Fatalf("bulk %d vs incremental %d results", len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("result mismatch at %d", i)
			}
		}
	}
}

// Property test of the point queries: over points stored as degenerate
// boxes, SearchRadius and NearestK on trees built by BulkRects and by
// Insert agree with brute force over the points — in dimensions 1-3,
// with duplicate points, equal distances, k > n and the empty tree.
func TestPointSearchesMatchBruteForce(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		dim := 1 + trial%3
		grid := trial%2 == 0
		n := 0
		if trial >= 3 {
			n = 1 + rng.Intn(300)
		}
		fanout := 4 + rng.Intn(16)
		items := make([]RectItem, n)
		pts := make(map[uint64]geom.Vec, n)
		for i := range items {
			p := randPoint(rng, dim, grid)
			items[i] = RectItem{ID: uint64(i + 1), R: Rect{Min: p, Max: p}}
			pts[items[i].ID] = p
		}
		bulk, err := BulkRects(items, dim, fanout)
		if err != nil {
			t.Fatalf("trial %d: BulkRects: %v", trial, err)
		}
		inc := NewRectTree(dim, fanout)
		for _, it := range items {
			if err := inc.Insert(it); err != nil {
				t.Fatalf("trial %d: Insert: %v", trial, err)
			}
		}
		for _, tc := range []struct {
			name string
			tree *RectTree
		}{{"bulk", bulk}, {"insert", inc}} {
			name, tree := tc.name, tc.tree
			if tree.Len() != n {
				t.Fatalf("trial %d %s: Len %d, want %d", trial, name, tree.Len(), n)
			}
			for q := 0; q < 20; q++ {
				c := randPoint(rng, dim, grid)
				rad := 400 * rng.Float64()
				if grid {
					rad = float64(rng.Intn(6)) // lands exactly on grid distances
				}
				var want []uint64
				for _, it := range items {
					if pts[it.ID].Dist2(c) <= rad*rad {
						want = append(want, it.ID)
					}
				}
				var got []uint64
				for _, it := range tree.SearchRadius(c, rad) {
					got = append(got, it.ID)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d %s query %d: SearchRadius(%v, %g) = %v, want %v",
						trial, name, q, c, rad, got, want)
				}

				k := rng.Intn(n + 3) // 0, and past n
				d2 := make([]float64, 0, n)
				for _, p := range pts {
					d2 = append(d2, p.Dist2(c))
				}
				slices.Sort(d2)
				nn := tree.NearestK(c, k)
				if len(nn) != min(k, n) {
					t.Fatalf("trial %d %s query %d: NearestK(k=%d) returned %d of %d",
						trial, name, q, k, len(nn), n)
				}
				seen := make(map[uint64]bool, len(nn))
				for i, it := range nn {
					p, ok := pts[it.ID]
					if !ok || seen[it.ID] {
						t.Fatalf("trial %d %s query %d: NearestK rank %d: unknown or repeated ID %d",
							trial, name, q, i, it.ID)
					}
					seen[it.ID] = true
					if got := p.Dist2(c); got != d2[i] || it.R.dist2(c) != got {
						t.Fatalf("trial %d %s query %d: NearestK rank %d: d2 %g (box %g), want %g",
							trial, name, q, i, got, it.R.dist2(c), d2[i])
					}
				}
			}
		}
	}
}

func TestRectValidation(t *testing.T) {
	if _, err := NewRect(geom.Of(1, 1), geom.Of(0, 0)); err == nil {
		t.Error("inverted rect accepted")
	}
	if _, err := NewRect(geom.Of(1), geom.Of(0, 0)); err == nil {
		t.Error("dim mismatch accepted")
	}
	r, err := NewRect(geom.Of(0, 0), geom.Of(1, 2))
	if err != nil || r.area() != 2 {
		t.Errorf("NewRect(0,0; 1,2) = %v, %v", r, err)
	}
}

func BenchmarkNearestK(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tr, _ := BulkRects(randPointItems(rng, 10000), 2, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.NearestK(geom.Of(float64(i%1000), 500), 5)
	}
}

// TestEnlargementMatchesExpandedCopy holds enlargement bit for bit to
// the form it replaced, expanding a copy of the box, so insertion weighs
// children exactly as before and builds the same tree. The cases cover
// random boxes, degenerate boxes, corners at +0 and -0 on both sides,
// and boxes at 1e12, where the two areas are close and their difference
// is a few ulps.
func TestEnlargementMatchesExpandedCopy(t *testing.T) {
	reference := func(r, o Rect) float64 {
		grown := Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
		grown.expand(o)
		return grown.area() - r.area()
	}
	rng := rand.New(rand.NewSource(8))
	coord := func(kind int) float64 {
		switch kind {
		case 0:
			return rng.Float64()*200 - 100
		case 1:
			return float64(rng.Intn(3) - 1)
		case 2:
			return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
		default:
			return 1e12 + rng.Float64()*1e3
		}
	}
	box := func(dim, kind int, degenerate bool) Rect {
		r := Rect{Min: make(geom.Vec, dim), Max: make(geom.Vec, dim)}
		for i := 0; i < dim; i++ {
			a, b := coord(kind), coord(kind)
			if degenerate || rng.Intn(4) == 0 {
				b = a
			}
			if b < a {
				a, b = b, a
			}
			r.Min[i], r.Max[i] = a, b
		}
		return r
	}
	for n := 0; n < 40000; n++ {
		dim := 1 + rng.Intn(3)
		r := box(dim, rng.Intn(4), rng.Intn(5) == 0)
		o := box(dim, rng.Intn(4), rng.Intn(5) == 0)
		if got, want := r.enlargement(o), reference(r, o); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("enlargement of %v by %v: %v (bits %#x), the expanded copy gives %v (bits %#x)",
				r, o, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
