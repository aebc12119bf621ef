package bead

// Kernel-level unit tests: fixed-time feasibility (including the Helly
// configuration that defeats any pairwise-only check) and the exact
// feasible-interval endpoints on hand-solvable systems.

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// static builds a constraint with constant radius r.
func static(r float64, cs ...float64) ball {
	return ball{c: geom.Of(cs...), ra: 0, rb: r}
}

// feasibleInterval asks the kernel about one whole system, set up as a
// window the way the chain walks set theirs up.
func feasibleInterval(cons []ball, w0, w1 float64) (lo, hi float64, ok bool) {
	var s windowScratch
	w := s.window(cons, nil, 1, w0, w1)
	return w.interval()
}

// feasibleAt decides one instant of a system with the tolerance eps.
func feasibleAt(cons []ball, t, eps float64) bool {
	var s windowScratch
	w := s.window(cons, nil, 1, t, t)
	w.eps = eps
	return w.feasibleAt(t)
}

// windowDisjoint is the broad-phase test of the window ca ∪ cb.
func windowDisjoint(ca, cb []ball, w0, w1 float64) bool {
	var s windowScratch
	w := s.window(ca, cb, consScale(cb, w0, w1), w0, w1)
	return w.disjoint()
}

// TestFeasibleAtHelly is the reason the kernel does real multi-ball
// feasibility: three circles with centers (0,0), (4,0), (2,3) intersect
// pairwise for any radius ≥ 2, yet share a common point only when the
// radius reaches 13/6 (attained at the equal-distance point (2, 5/6)).
// A pairwise-only decision procedure calls the r = 2.1 case feasible.
func TestFeasibleAtHelly(t *testing.T) {
	mk := func(r float64) []ball {
		return []ball{static(r, 0, 0), static(r, 4, 0), static(r, 2, 3)}
	}
	eps := relEps * 10
	if feasibleAt(mk(2.1), 0, eps) {
		t.Fatal("r=2.1 < 13/6: pairwise-feasible system wrongly judged feasible")
	}
	if !feasibleAt(mk(2.17), 0, eps) {
		t.Fatal("r=2.17 > 13/6: feasible system (witness (2,5/6)) judged infeasible")
	}
	// Exactly at the critical radius the three circles meet in the
	// single point (2, 5/6): boundary contact must count.
	if !feasibleAt(mk(13.0/6), 0, eps) {
		t.Fatal("r=13/6: triple tangency point missed")
	}
}

func TestFeasibleAtBasics(t *testing.T) {
	eps := relEps * 10
	cases := []struct {
		name string
		cons []ball
		want bool
	}{
		{"single ball", []ball{static(1, 5, 5)}, true},
		{"zero radius", []ball{static(0, 1, 2)}, true},
		{"negative radius", []ball{static(-0.5, 0, 0)}, false},
		{"disjoint pair", []ball{static(1, 0, 0), static(1, 3, 0)}, false},
		{"tangent pair", []ball{static(1, 0, 0), static(1, 2, 0)}, true},
		{"nested pair", []ball{static(5, 0, 0), static(1, 1, 0)}, true},
		{"concentric", []ball{static(2, 1, 1), static(1, 1, 1)}, true},
		{"concentric disjoint", []ball{static(0, 1, 1), static(-1, 1, 1)}, false},
		{"four balls one point", []ball{ // all tangent to (1,1)
			static(math.Sqrt2, 0, 0), static(math.Sqrt2, 2, 0),
			static(math.Sqrt2, 0, 2), static(math.Sqrt2, 2, 2)}, true},
		{"collinear trio", []ball{static(1, 0, 0), static(1, 2, 0), static(1, 4, 0)}, false},
		{"collinear trio touching", []ball{static(2, 0, 0), static(2, 2, 0), static(2, 4, 0)}, true},
		// The circumcenter of this tetrahedron is (1/2, 1/2, 1/2) at
		// distance √3/2 ≈ 0.866 from every vertex: that's the min-max
		// radius, so 0.9 admits a point and 0.8 does not even though
		// every PAIR of 0.8-balls overlaps (Helly again, now in 3D
		// with four balls).
		{"3d tetrahedron tight", []ball{
			static(0.9, 0, 0, 0), static(0.9, 1, 0, 0),
			static(0.9, 0, 1, 0), static(0.9, 0, 0, 1)}, true},
		{"3d tetrahedron below circumradius", []ball{
			static(0.8, 0, 0, 0), static(0.8, 1, 0, 0),
			static(0.8, 0, 1, 0), static(0.8, 0, 0, 1)}, false},
	}
	for _, tc := range cases {
		if got := feasibleAt(tc.cons, 0, eps); got != tc.want {
			t.Errorf("%s: feasibleAt = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFeasibleIntervalGrowingBalls pins exact interval endpoints on a
// hand-solvable system: two balls growing from (0,0) and (8,0) at unit
// rate meet when t + t ≥ 8, i.e. on [4, ∞) — clipped by the window.
func TestFeasibleIntervalGrowingBalls(t *testing.T) {
	cons := []ball{
		{c: geom.Of(0, 0), ra: 1, rb: 0},
		{c: geom.Of(8, 0), ra: 1, rb: 0},
	}
	lo, hi, ok := feasibleInterval(cons, 0, 10)
	if !ok {
		t.Fatal("growing balls never met")
	}
	if math.Abs(lo-4) > 1e-6 || math.Abs(hi-10) > 1e-6 {
		t.Fatalf("interval [%g, %g], want [4, 10]", lo, hi)
	}
	// Window ending exactly at the tangency instant: a single-instant
	// touch must still be found.
	lo, hi, ok = feasibleInterval(cons, 0, 4)
	if !ok {
		t.Fatal("tangency at the window edge missed")
	}
	if math.Abs(lo-4) > 1e-6 || math.Abs(hi-4) > 1e-6 {
		t.Fatalf("edge tangency interval [%g, %g], want [4, 4]", lo, hi)
	}
	if _, _, ok = feasibleInterval(cons, 0, 3.9); ok {
		t.Fatal("balls met before they could reach each other")
	}
}

// TestFeasibleIntervalShrinkingLens: one ball grows from (0,0), one
// shrinks toward (6,0) (radius 10 − t). Meeting requires t + 10 − t ≥ 6
// — always true — but the shrinking ball dies at t = 10.
func TestFeasibleIntervalShrinkingLens(t *testing.T) {
	cons := []ball{
		{c: geom.Of(0, 0), ra: 1, rb: 0},
		{c: geom.Of(6, 0), ra: -1, rb: 10},
	}
	// At t = 0 the growing ball is the single point (0,0), which lies
	// inside the big shrinking ball: feasible from the start. After
	// t = 10 the second radius is negative: infeasible.
	lo, hi, ok := feasibleInterval(cons, 0, 20)
	if !ok {
		t.Fatal("system judged infeasible")
	}
	if math.Abs(lo-0) > 1e-6 || math.Abs(hi-10) > 1e-6 {
		t.Fatalf("interval [%g, %g], want [0, 10]", lo, hi)
	}
}

// TestFeasibleIntervalPinch drives through a genuine triple pinch: two
// static tangent circles pin the only candidate point to (2, 0), and a
// third ball growing from (2, 3) reaches it exactly at t = 3.
func TestFeasibleIntervalPinch(t *testing.T) {
	cons := []ball{
		static(2, 0, 0),
		static(2, 4, 0),
		{c: geom.Of(2, 3), ra: 1, rb: 0},
	}
	lo, hi, ok := feasibleInterval(cons, 0, 10)
	if !ok {
		t.Fatal("pinch system judged infeasible")
	}
	if math.Abs(lo-3) > 1e-6 {
		t.Fatalf("pinch opens at %g, want 3", lo)
	}
	if math.Abs(hi-10) > 1e-6 {
		t.Fatalf("pinch interval ends at %g, want 10 (stays feasible)", hi)
	}
	if _, _, ok := feasibleInterval(cons, 0, 2.9); ok {
		t.Fatal("feasible before the third ball arrives")
	}
}

// TestFeasibleIntervalMatchesOracle cross-checks the interval decision
// against the certified oracle on a mix of random-ish affine systems.
func TestFeasibleIntervalMatchesOracle(t *testing.T) {
	o := NewOracle()
	systems := [][]ball{
		{{c: geom.Of(0, 0), ra: 0.5, rb: 0.25}, {c: geom.Of(3, 1), ra: -0.25, rb: 2}},
		{{c: geom.Of(0, 0), ra: 1, rb: -2}, {c: geom.Of(5, 0), ra: 1, rb: -2}, {c: geom.Of(2.5, 4), ra: 0.5, rb: 0}},
		{{c: geom.Of(1, 1, 1), ra: 0.75, rb: 0}, {c: geom.Of(-1, 1, 0), ra: 0.5, rb: 1}, {c: geom.Of(0, -2, 2), ra: 1, rb: -1}},
		{{c: geom.Of(0), ra: 1, rb: 0}, {c: geom.Of(10), ra: 0.25, rb: 1}},
	}
	for i, cons := range systems {
		lo, hi, ok := feasibleInterval(cons, 0, 8)
		switch o.feasible(cons, 0, 8) {
		case Possible:
			if !ok {
				t.Errorf("system %d: oracle found a witness, kernel says infeasible", i)
			}
		case Impossible:
			if ok {
				t.Errorf("system %d: oracle certifies empty, kernel claims [%g, %g]", i, lo, hi)
			}
		}
		if !ok {
			continue
		}
		// The claimed endpoints (nudged inward) must satisfy the system.
		scale := consScale(cons, 0, 8)
		eps := relEps * scale * 10
		for _, tt := range []float64{lo, (lo + hi) / 2, hi} {
			if !feasibleAt(cons, tt, eps) {
				t.Errorf("system %d: claimed feasible time %g fails feasibleAt", i, tt)
			}
		}
		// Just outside the interval must be infeasible (when the
		// endpoint is interior to the window by a visible margin).
		if lo > 1e-3 && feasibleAt(cons, lo-1e-3, eps) {
			t.Errorf("system %d: t=%g before claimed start is feasible", i, lo-1e-3)
		}
		if hi < 8-1e-3 && feasibleAt(cons, hi+1e-3, eps) {
			t.Errorf("system %d: t=%g after claimed end is feasible", i, hi+1e-3)
		}
	}
}
