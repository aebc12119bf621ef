package piecewise

import (
	"math"
	"testing"

	"repro/internal/poly"
)

func inf() float64 { return math.Inf(1) }

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty pieces should fail")
	}
	if _, err := New(Piece{Start: 1, End: 1, P: poly.Constant(1)}); err == nil {
		t.Error("empty interval should fail")
	}
	if _, err := New(
		Piece{Start: 0, End: 1, P: poly.Constant(1)},
		Piece{Start: 2, End: 3, P: poly.Constant(1)},
	); err == nil {
		t.Error("gap should fail")
	}
	f, err := New(
		Piece{Start: 0, End: 1, P: poly.Constant(1)},
		Piece{Start: 1, End: inf(), P: poly.Linear(1, 0)},
	)
	if err != nil {
		t.Fatalf("valid pieces rejected: %v", err)
	}
	lo, hi := f.Domain()
	if lo != 0 || !math.IsInf(hi, 1) {
		t.Errorf("Domain = [%g,%g]", lo, hi)
	}
}

func TestEvalAcrossPieces(t *testing.T) {
	// f = t on [0,2], then 4-t on [2,10] (continuous tent at 2).
	f := MustNew(
		Piece{Start: 0, End: 2, P: poly.Linear(1, 0)},
		Piece{Start: 2, End: 10, P: poly.Linear(-1, 4)},
	)
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 1}, {2, 2}, {3, 1}, {4, 0}, {10, -6},
	}
	for _, c := range cases {
		if got := f.Eval(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if !f.InDomain(5) || f.InDomain(11) || f.InDomain(-1) {
		t.Error("InDomain wrong")
	}
}

func TestSubAlignsBreakpoints(t *testing.T) {
	f := MustNew(
		Piece{Start: 0, End: 5, P: poly.Linear(1, 0)},   // t
		Piece{Start: 5, End: 10, P: poly.Linear(2, -5)}, // 2t-5
	)
	g := MustNew(
		Piece{Start: 0, End: 3, P: poly.Constant(2)},
		Piece{Start: 3, End: 10, P: poly.Linear(1, -1)}, // t-1
	)
	d, err := f.Sub(g)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPieces() != 3 {
		t.Fatalf("NumPieces = %d, want 3 (%s)", d.NumPieces(), d)
	}
	for _, tt := range []float64{0, 1, 2.9, 3, 4, 5, 7, 10} {
		want := f.Eval(tt) - g.Eval(tt)
		if got := d.Eval(tt); math.Abs(got-want) > 1e-12 {
			t.Errorf("Sub.Eval(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestAddMulScale(t *testing.T) {
	f := FromPoly(poly.Linear(1, 0), 0, 10)
	g := FromPoly(poly.Linear(-1, 10), 0, 10)
	sum, err := f.Add(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Eval(4); math.Abs(got-10) > 1e-12 {
		t.Errorf("Add = %g, want 10", got)
	}
	prod, err := f.Mul(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := prod.Eval(4); math.Abs(got-24) > 1e-12 {
		t.Errorf("Mul = %g, want 24", got)
	}
	if got := f.Scale(3).Eval(2); math.Abs(got-6) > 1e-12 {
		t.Errorf("Scale = %g, want 6", got)
	}
}

func TestDisjointDomains(t *testing.T) {
	f := FromPoly(poly.Constant(1), 0, 1)
	g := FromPoly(poly.Constant(1), 2, 3)
	if _, err := f.Sub(g); err == nil {
		t.Error("disjoint domains should fail")
	}
}

func TestRestrict(t *testing.T) {
	f := MustNew(
		Piece{Start: 0, End: 5, P: poly.Linear(1, 0)},
		Piece{Start: 5, End: 10, P: poly.Linear(2, -5)},
	)
	r, err := f.Restrict(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.Domain()
	if lo != 3 || hi != 7 {
		t.Errorf("Domain = [%g,%g]", lo, hi)
	}
	if r.NumPieces() != 2 {
		t.Errorf("NumPieces = %d", r.NumPieces())
	}
	if got := r.Eval(6); math.Abs(got-7) > 1e-12 {
		t.Errorf("Eval(6) = %g, want 7", got)
	}
	if _, err := f.Restrict(20, 30); err == nil {
		t.Error("out-of-domain restrict should fail")
	}
}

func TestFirstZeroAfter(t *testing.T) {
	// f = (t-2)(t-6) on [0, 10].
	f := FromPoly(poly.FromRoots(2, 6), 0, 10)
	s, coincide, ok := f.FirstZeroAfter(0)
	if !ok || coincide || math.Abs(s-2) > 1e-8 {
		t.Errorf("first zero = %g coincide=%v ok=%v", s, coincide, ok)
	}
	s, _, ok = f.FirstZeroAfter(2)
	if !ok || math.Abs(s-6) > 1e-8 {
		t.Errorf("second zero = %g ok=%v (strictness after root)", s, ok)
	}
	if _, _, ok := f.FirstZeroAfter(6); ok {
		t.Error("no zero after 6 expected")
	}
}

func TestFirstZeroAcrossPieces(t *testing.T) {
	// Zero lives in the second piece.
	f := MustNew(
		Piece{Start: 0, End: 4, P: poly.Constant(5)},
		Piece{Start: 4, End: 20, P: poly.Linear(1, -9)}, // t-9
	)
	s, coincide, ok := f.FirstZeroAfter(0)
	if !ok || coincide || math.Abs(s-9) > 1e-9 {
		t.Errorf("zero = %g coincide=%v ok=%v", s, coincide, ok)
	}
}

func TestFirstZeroCoincide(t *testing.T) {
	f := MustNew(
		Piece{Start: 0, End: 3, P: poly.Linear(-1, 3)}, // 3-t hits 0 at 3
		Piece{Start: 3, End: 8, P: poly.Poly{}},        // identically zero
		Piece{Start: 8, End: 12, P: poly.Linear(1, -8)},
	)
	s, coincide, ok := f.FirstZeroAfter(0)
	if !ok {
		t.Fatal("expected zero")
	}
	// The isolated root at 3 and the coincidence both begin at 3; either
	// report is acceptable as long as time is 3.
	if math.Abs(s-3) > 1e-9 {
		t.Errorf("zero = %g coincide=%v, want 3", s, coincide)
	}
	s, coincide, ok = f.FirstZeroAfter(5)
	if !ok || !coincide || math.Abs(s-5) > 1e-9 {
		t.Errorf("mid-coincidence: s=%g coincide=%v ok=%v, want s=5 coincide", s, coincide, ok)
	}
}

func TestConstantCurve(t *testing.T) {
	c := Constant(7, 0, inf())
	if got := c.Eval(1e6); got != 7 {
		t.Errorf("Constant = %g", got)
	}
}

func TestStringer(t *testing.T) {
	f := FromPoly(poly.Linear(1, 0), 0, 1)
	if f.String() == "" || (Func{}).String() != "<empty>" {
		t.Error("String failed")
	}
}

func TestMin(t *testing.T) {
	// (t-3)^2 + 1 on [0,2] then on [2,10]: minimum 1 at the interior vertex.
	p := poly.New(10, -6, 1)
	f := MustNew(Piece{Start: 0, End: 2, P: p}, Piece{Start: 2, End: 10, P: p})
	if got := f.Min(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Min = %g, want 1", got)
	}
	// Clipped before the vertex: the minimum is at the end point.
	if got := FromPoly(p, 0, 2).Min(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Min on [0,2] = %g, want 2", got)
	}
	// A cubic's interior local minimum beats both end points.
	c := poly.New(0, -3, 0, 1) // t^3 - 3t: local min -2 at t=1
	if got := FromPoly(c, -1.5, 3).Min(); math.Abs(got+2) > 1e-9 {
		t.Errorf("cubic Min = %g, want -2", got)
	}
	// Unbounded tails: rising keeps the vertex, falling has no minimum.
	if got := FromPoly(p, 0, math.Inf(1)).Min(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Min on [0,+Inf) = %g, want 1", got)
	}
	if got := FromPoly(poly.New(5, -1), 0, math.Inf(1)).Min(); !math.IsInf(got, -1) {
		t.Errorf("falling line on [0,+Inf): Min = %g, want -Inf", got)
	}
	if got := Constant(7, 0, math.Inf(1)).Min(); got != 7 {
		t.Errorf("constant Min = %g, want 7", got)
	}
}
