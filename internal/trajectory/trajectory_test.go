package trajectory

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

// example1 builds the airplane trajectory of the paper's Example 1:
//
//	x = (2, -1, 0)t + (-40, 23, 30)   for 0 <= t <= 21
//	x = (0, -1, -5)t + (2, 23, 135)   for 21 <= t <= 22
//	x = (0.5, 0, -1)t + (-9, 1, 47)   for 22 <= t
func example1(t *testing.T) Trajectory {
	t.Helper()
	mk := func(start, end float64, a, b geom.Vec) Piece {
		return Piece{Start: start, End: end, A: a, B: b.AddScaled(start, a)}
	}
	tr, err := FromPieces(
		mk(0, 21, geom.Of(2, -1, 0), geom.Of(-40, 23, 30)),
		mk(21, 22, geom.Of(0, -1, -5), geom.Of(2, 23, 135)),
		mk(22, math.Inf(1), geom.Of(0.5, 0, -1), geom.Of(-9, 1, 47)),
	)
	if err != nil {
		t.Fatalf("example1: %v", err)
	}
	return tr
}

func TestExample1Trajectory(t *testing.T) {
	tr := example1(t)
	// Paper: turned at time 21 at position (2, 2, 30); second turn at 22
	// at position (2, 1, 25).
	p21, err := tr.At(21)
	if err != nil {
		t.Fatal(err)
	}
	if !p21.ApproxEqual(geom.Of(2, 2, 30), 1e-9) {
		t.Errorf("position at 21 = %v, want (2, 2, 30)", p21)
	}
	p22 := tr.MustAt(22)
	if !p22.ApproxEqual(geom.Of(2, 1, 25), 1e-9) {
		t.Errorf("position at 22 = %v, want (2, 1, 25)", p22)
	}
	turns := tr.Turns()
	if len(turns) != 2 || turns[0] != 21 || turns[1] != 22 {
		t.Errorf("Turns = %v, want [21 22]", turns)
	}
	if tr.IsTerminated() {
		t.Error("open-ended trajectory reported terminated")
	}
	if tr.Dim() != 3 {
		t.Errorf("Dim = %d", tr.Dim())
	}
}

func TestExample2Landing(t *testing.T) {
	// Example 2: chdir(o, 47, (0,0,0)) lands the airplane at
	// (14.5, 1, 0) and it stays there.
	tr := example1(t)
	landed, err := tr.ChDir(47, geom.Of(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	p47 := landed.MustAt(47)
	if !p47.ApproxEqual(geom.Of(14.5, 1, 0), 1e-9) {
		t.Errorf("position at 47 = %v, want (14.5, 1, 0)", p47)
	}
	p100 := landed.MustAt(100)
	if !p100.ApproxEqual(geom.Of(14.5, 1, 0), 1e-9) {
		t.Errorf("position at 100 = %v, want parked at (14.5, 1, 0)", p100)
	}
	if n := len(landed.Pieces()); n != 4 {
		t.Errorf("pieces = %d, want 4", n)
	}
	// Original trajectory is unchanged (immutability).
	if tr.MustAt(100).ApproxEqual(p100, 1e-9) {
		t.Error("ChDir mutated the receiver")
	}
}

func TestLinearAndStationary(t *testing.T) {
	tr := Linear(5, geom.Of(1, 0), geom.Of(10, 10))
	if got := tr.MustAt(7); !got.ApproxEqual(geom.Of(12, 10), 1e-12) {
		t.Errorf("At(7) = %v", got)
	}
	if tr.DefinedAt(4.9) {
		t.Error("defined before start")
	}
	st := Stationary(0, geom.Of(3, 4))
	if got := st.MustAt(1000); !got.ApproxEqual(geom.Of(3, 4), 1e-12) {
		t.Errorf("stationary moved: %v", got)
	}
	if len(st.Turns()) != 0 {
		t.Error("stationary has turns")
	}
}

func TestAtOutsideDomain(t *testing.T) {
	tr := Linear(0, geom.Of(1), geom.Of(0))
	term, err := tr.Terminate(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := term.At(11); err == nil {
		t.Error("At after termination should fail")
	}
	if _, err := term.At(-1); err == nil {
		t.Error("At before start should fail")
	}
	if !term.IsTerminated() || term.End() != 10 {
		t.Errorf("End = %g", term.End())
	}
}

func TestTerminateMidPiece(t *testing.T) {
	tr := example1(t)
	term, err := tr.Terminate(21.5)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(term.Pieces()); n != 2 {
		t.Errorf("pieces = %d, want 2", n)
	}
	want := tr.MustAt(21.5)
	if got := term.MustAt(21.5); !got.ApproxEqual(want, 1e-9) {
		t.Errorf("terminate changed positions: %v vs %v", got, want)
	}
	if _, err := term.Terminate(0); err == nil {
		t.Error("terminate before start should fail")
	}
}

func TestChDirErrors(t *testing.T) {
	tr := Linear(10, geom.Of(1), geom.Of(0))
	if _, err := tr.ChDir(5, geom.Of(1)); err == nil {
		t.Error("chdir before start should fail")
	}
	if _, err := tr.ChDir(15, geom.Of(1, 2)); err == nil {
		t.Error("chdir with wrong dimension should fail")
	}
	term, _ := tr.Terminate(20)
	if _, err := term.ChDir(25, geom.Of(1)); err == nil {
		t.Error("chdir after termination should fail")
	}
}

func TestVelocityAt(t *testing.T) {
	tr := example1(t)
	v, err := tr.VelocityAt(10)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(geom.Of(2, -1, 0)) {
		t.Errorf("vel(10) = %v", v)
	}
	// At the turn instant the right derivative governs.
	v, _ = tr.VelocityAt(21)
	if !v.Equal(geom.Of(0, -1, -5)) {
		t.Errorf("vel(21) = %v", v)
	}
}

func TestFromPiecesRejectsDiscontinuity(t *testing.T) {
	_, err := FromPieces(
		Piece{Start: 0, End: 1, A: geom.Of(1), B: geom.Of(0)},
		Piece{Start: 1, End: 2, A: geom.Of(1), B: geom.Of(99)}, // jump
	)
	if err == nil {
		t.Error("discontinuous pieces accepted")
	}
	_, err = FromPieces(
		Piece{Start: 0, End: 1, A: geom.Of(1), B: geom.Of(0)},
		Piece{Start: 5, End: 6, A: geom.Of(1), B: geom.Of(1)}, // gap
	)
	if err == nil {
		t.Error("time gap accepted")
	}
}

func TestCoordinate(t *testing.T) {
	tr := example1(t)
	x0, err := tr.Coordinate(0, math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 10, 21, 21.5, 22, 40} {
		want := tr.MustAt(tt)[0]
		if got := x0.Eval(tt); math.Abs(got-want) > 1e-9 {
			t.Errorf("x0(%g) = %g, want %g", tt, got, want)
		}
	}
	if _, err := tr.Coordinate(5, 0, 1); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	// A window that misses the domain is rejected on either side of it.
	done, err := tr.Terminate(30)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]float64{{-5, -1}, {31, 40}} {
		if _, err := done.Coordinate(0, w[0], w[1]); !errors.Is(err, ErrUndefined) {
			t.Errorf("Coordinate over [%g, %g], outside [0, 30]: err = %v, want ErrUndefined", w[0], w[1], err)
		}
	}
	// One that touches it at an endpoint is not.
	for _, w := range [][2]float64{{-5, 0}, {30, 40}} {
		if _, err := done.Coordinate(0, w[0], w[1]); err != nil {
			t.Errorf("Coordinate over [%g, %g], touching [0, 30]: %v", w[0], w[1], err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	tr := example1(t)
	s := tr.String()
	if !strings.Contains(s, "x = (2, -1, 0)t + (-40, 23, 30)") {
		t.Errorf("String missing paper form: %s", s)
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(String): %v", err)
	}
	for _, tt := range []float64{0, 10.5, 21, 22, 47} {
		a, b := tr.MustAt(tt), back.MustAt(tt)
		if !a.ApproxEqual(b, 1e-9) {
			t.Errorf("round trip differs at t=%g: %v vs %v", tt, a, b)
		}
	}
}

func TestParsePaperSyntax(t *testing.T) {
	tr, err := Parse(`x = (2, -1, 0)t + (-40, 23, 30) & 0 <= t <= 21
		| x = (0, -1, -5)t + (2, 23, 135) & 21 <= t <= 22
		| x = (0.5, 0, -1)t + (-9, 1, 47) & 22 <= t`)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.MustAt(21).ApproxEqual(geom.Of(2, 2, 30), 1e-9) {
		t.Errorf("parsed At(21) = %v", tr.MustAt(21))
	}
	// Stationary piece syntax (Example 2's landed plane).
	st, err := Parse(`x = (14.5, 1, 0) & 47 <= t`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.MustAt(60).ApproxEqual(geom.Of(14.5, 1, 0), 1e-9) {
		t.Errorf("stationary parse At(60) = %v", st.MustAt(60))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"x = (1,2)t + (3,4)",               // no time constraint
		"(1,2)t + (3,4) & 0 <= t",          // no '='
		"x = (1,2)t + (3) & 0 <= t",        // dim mismatch
		"x = (1,a)t + (3,4) & 0 <= t",      // bad number
		"x = (1,2)t + (3,4) & 0 <= s <= 1", // bad variable
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestEqual(t *testing.T) {
	a := example1(t)
	b := example1(t)
	if !a.Equal(b) {
		t.Error("identical trajectories not Equal")
	}
	c, _ := a.ChDir(30, geom.Of(0, 0, 0))
	if a.Equal(c) {
		t.Error("different trajectories Equal")
	}
	if (Trajectory{}).IsDefined() {
		t.Error("zero value should be undefined")
	}
	if (Trajectory{}).String() != "<undefined>" {
		t.Error("zero value String")
	}
}

func TestBreaksVsTurns(t *testing.T) {
	// A piece boundary with equal velocities is a break but not a turn.
	tr := MustFromPieces(
		Piece{Start: 0, End: 1, A: geom.Of(1), B: geom.Of(0)},
		Piece{Start: 1, End: 2, A: geom.Of(1), B: geom.Of(1)},
		Piece{Start: 2, End: 3, A: geom.Of(2), B: geom.Of(2)},
	)
	if got := tr.Breaks(); len(got) != 2 {
		t.Errorf("Breaks = %v", got)
	}
	if got := tr.Turns(); len(got) != 1 || got[0] != 2 {
		t.Errorf("Turns = %v, want [2]", got)
	}
}
