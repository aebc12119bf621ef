package piecewise

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/poly"
)

func TestFirstMeetingAfterSimple(t *testing.T) {
	f := FromPoly(poly.Linear(1, 0), 0, 100)
	g := FromPoly(poly.Linear(-1, 10), 0, 100)
	s, coincide, ok := FirstMeetingAfter(f, g, 0, 100)
	if !ok || coincide || math.Abs(s-5) > 1e-9 {
		t.Fatalf("meet = %g coincide=%v ok=%v", s, coincide, ok)
	}
	if _, _, ok := FirstMeetingAfter(f, g, 5, 100); ok {
		t.Error("no second meeting expected")
	}
}

func TestFirstMeetingAfterRespectsHorizon(t *testing.T) {
	f := FromPoly(poly.Linear(1, 0), 0, 100)
	g := FromPoly(poly.Linear(-1, 10), 0, 100)
	if _, _, ok := FirstMeetingAfter(f, g, 0, 4); ok {
		t.Error("meeting beyond horizon reported")
	}
	s, _, ok := FirstMeetingAfter(f, g, 0, 5)
	if !ok || math.Abs(s-5) > 1e-9 {
		t.Errorf("meeting at horizon: %g %v", s, ok)
	}
}

func TestFirstMeetingAfterCrossPieces(t *testing.T) {
	// f has pieces; meeting lives in a later segment.
	f := MustNew(
		Piece{Start: 0, End: 10, P: poly.Constant(5)},
		Piece{Start: 10, End: 100, P: poly.Linear(-1, 15)}, // descends from 5
	)
	g := FromPoly(poly.Constant(2), 0, 100)
	s, coincide, ok := FirstMeetingAfter(f, g, 0, 100)
	if !ok || coincide || math.Abs(s-13) > 1e-9 {
		t.Fatalf("meet = %g coincide=%v ok=%v, want 13", s, coincide, ok)
	}
}

// TestFirstMeetingNoExtrapolatedRoots is the regression test for the
// phantom-event bug: a later piece's polynomial has a root before the
// piece's own domain, which must not be reported as a meeting.
func TestFirstMeetingNoExtrapolatedRoots(t *testing.T) {
	// g's second piece is 50 - 0.5t: extended below its domain start it
	// crosses 40 at t=20 exactly (fine) but crosses 45 at t=10 — a
	// phantom root inside the first piece's domain where g is constant.
	g := MustNew(
		Piece{Start: 0, End: 20, P: poly.Constant(40)},
		Piece{Start: 20, End: 100, P: poly.Linear(-0.5, 50)}, // 40 at 20, 0 at 100
	)
	f := Constant(0, 0, 100)
	s, coincide, ok := FirstMeetingAfter(g, f, 0, 100)
	if !ok || coincide || math.Abs(s-100) > 1e-6 {
		t.Fatalf("meet = %g coincide=%v ok=%v, want 100 (no phantom roots)", s, coincide, ok)
	}
	// And f-vs-g with a threshold that the FIRST piece's extension would
	// cross early but the actual curve crosses late.
	h := Constant(30, 0, 100)
	s, _, ok = FirstMeetingAfter(g, h, 0, 100)
	if !ok || math.Abs(s-40) > 1e-9 { // 50 - 0.5t = 30 => t = 40
		t.Fatalf("meet = %g ok=%v, want 40", s, ok)
	}
}

func TestFirstMeetingCoincideDetection(t *testing.T) {
	shared := poly.Linear(1, 0)
	f := MustNew(
		Piece{Start: 0, End: 5, P: poly.Linear(2, -5)}, // meets shared at 5
		Piece{Start: 5, End: 50, P: shared},
	)
	g := FromPoly(shared, 0, 50)
	s, coincide, ok := FirstMeetingAfter(f, g, 0, 50)
	if !ok || math.Abs(s-5) > 1e-9 {
		t.Fatalf("meet = %g coincide=%v ok=%v", s, coincide, ok)
	}
	// Starting inside the coincidence reports it immediately.
	s, coincide, ok = FirstMeetingAfter(f, g, 10, 50)
	if !ok || !coincide || s != 10 {
		t.Fatalf("mid-coincidence: %g %v %v", s, coincide, ok)
	}
}

func TestSignDiffAfterBefore(t *testing.T) {
	f := FromPoly(poly.Linear(1, 0), 0, 100)   // t
	g := FromPoly(poly.Linear(-1, 10), 0, 100) // 10-t
	checkSignDiff(t, f, g, []signCase{
		{"crossing", 5, 1, -1},
		{"before the crossing", 2, -1, -1},
		{"out of domain", 200, 0, 0},
	})
}

// TestSignAfterBefore: a tent peaking at 2 against the constant 2 is below
// it on both sides of the peak, where the tent's two pieces meet.
func TestSignAfterBefore(t *testing.T) {
	tent := MustNew(
		Piece{Start: 0, End: 2, P: poly.Linear(1, 0)},
		Piece{Start: 2, End: 10, P: poly.Linear(-1, 4)},
	)
	checkSignDiff(t, tent, Constant(2, 0, 10), []signCase{
		{"tent peak", 2, -1, -1},
		{"tent start", 0, -1, -1},
		{"tent rising", 1.5, -1, -1},
	})
}

type signCase struct {
	name          string
	at            float64
	after, before int
}

func checkSignDiff(t *testing.T, f, g Func, cases []signCase) {
	t.Helper()
	for _, c := range cases {
		if s := SignDiffAfter(f, g, c.at); s != c.after {
			t.Errorf("%s: SignDiffAfter(%g) = %d, want %d", c.name, c.at, s, c.after)
		}
		if s := SignDiffBefore(f, g, c.at); s != c.before {
			t.Errorf("%s: SignDiffBefore(%g) = %d, want %d", c.name, c.at, s, c.before)
		}
	}
}

func TestSignDiffAtPieceBoundary(t *testing.T) {
	// f kinks at 10: rising then falling; g constant at the kink value.
	f := MustNew(
		Piece{Start: 0, End: 10, P: poly.Linear(1, 0)},
		Piece{Start: 10, End: 100, P: poly.Linear(-1, 20)},
	)
	g := Constant(10, 0, 100)
	if s := SignDiffBefore(f, g, 10); s != -1 {
		t.Errorf("before kink = %d", s)
	}
	if s := SignDiffAfter(f, g, 10); s != -1 {
		t.Errorf("after kink = %d (f falls away below g)", s)
	}
}

func TestCoincidenceEndAfter(t *testing.T) {
	shared := poly.Constant(3)
	f := MustNew(
		Piece{Start: 0, End: 10, P: shared},
		Piece{Start: 10, End: 50, P: poly.Linear(1, -7)},
	)
	g := FromPoly(shared, 0, 50)
	sep, ok := CoincidenceEndAfter(f, g, 2, 50)
	if !ok || math.Abs(sep-10) > 1e-9 {
		t.Fatalf("sep = %g ok=%v, want 10", sep, ok)
	}
	// Identical forever within the window: no separation.
	h := FromPoly(shared, 0, 50)
	if _, ok := CoincidenceEndAfter(g, h, 0, 50); ok {
		t.Error("identical curves reported separation")
	}
}

// Property: FirstMeetingAfter agrees with the materialized difference's
// FirstZeroAfter on random piecewise-linear curves.
func TestFirstMeetingMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		f := randPL(rng)
		g := randPL(rng)
		after := rng.Float64() * 50
		s1, c1, ok1 := FirstMeetingAfter(f, g, after, 100)
		d, err := f.Sub(g)
		if err != nil {
			t.Fatal(err)
		}
		s2, c2, ok2 := d.FirstZeroAfter(after)
		if ok1 != ok2 {
			t.Fatalf("trial %d: ok %v vs %v (after=%g)\nf=%s\ng=%s", trial, ok1, ok2, after, f, g)
		}
		if ok1 {
			if math.Abs(s1-s2) > 1e-6 || c1 != c2 {
				t.Fatalf("trial %d: meet %g(%v) vs %g(%v)", trial, s1, c1, s2, c2)
			}
		}
	}
}

func randPL(rng *rand.Rand) Func {
	breaks := []float64{0, 100}
	for i := 0; i < rng.Intn(3); i++ {
		breaks = append(breaks, math.Floor(rng.Float64()*99)+0.5)
	}
	sortFloat(breaks)
	val := math.Floor(rng.Float64()*40) - 20
	var pieces []Piece
	for i := 0; i+1 < len(breaks); i++ {
		a, b := breaks[i], breaks[i+1]
		if b <= a {
			continue
		}
		slope := math.Floor(rng.Float64()*9) - 4
		pieces = append(pieces, Piece{Start: a, End: b, P: poly.Linear(slope, val-slope*a)})
		val += slope * (b - a)
	}
	return MustNew(pieces...)
}

func sortFloat(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestFitLinearAndQuadraticExact(t *testing.T) {
	f, err := Fit(func(x float64) float64 { return 3*x + 1 }, 0, 10, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.MaxAbsErr(func(x float64) float64 { return 3*x + 1 }, 50); got > 1e-9 {
		t.Errorf("linear fit err %g", got)
	}
	quad := func(x float64) float64 { return x*x - 4*x + 7 }
	f, err = Fit(quad, -5, 5, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumPieces() != 1 {
		t.Errorf("quadratic should fit in one piece, got %d", f.NumPieces())
	}
}

func TestFitSqrtWithinTolerance(t *testing.T) {
	fn := math.Sqrt
	for _, tol := range []float64{1e-3, 1e-6, 1e-9} {
		f, err := Fit(fn, 1, 100, tol)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.MaxAbsErr(fn, 20); got > 2*tol {
			t.Errorf("tol %g: max err %g", tol, got)
		}
	}
	// Tighter tolerance uses more pieces.
	loose, _ := Fit(fn, 1, 100, 1e-3)
	tight, _ := Fit(fn, 1, 100, 1e-9)
	if tight.NumPieces() <= loose.NumPieces() {
		t.Errorf("pieces: tight %d vs loose %d", tight.NumPieces(), loose.NumPieces())
	}
}

func TestFitErrors(t *testing.T) {
	id := func(x float64) float64 { return x }
	if _, err := Fit(id, 5, 5, 1e-6); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := Fit(id, 0, math.Inf(1), 1e-6); err == nil {
		t.Error("infinite interval accepted")
	}
	if _, err := Fit(id, 0, 1, 0); err == nil {
		t.Error("zero tolerance accepted")
	}
}
