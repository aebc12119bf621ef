package gdist

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

func TestEuclideanSqExample8(t *testing.T) {
	// Query object moves along x-axis at speed 1; object o parallel at
	// distance 3 in y: distance^2 constant 9.
	q := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))
	o := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 3))
	d := EuclideanSq{Query: q}
	f, err := d.Curve(o, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 5, 100} {
		if got := f.Eval(tt); math.Abs(got-9) > 1e-9 {
			t.Errorf("f(%g) = %g, want 9", tt, got)
		}
	}
	if d.Name() != "euclidean-sq" {
		t.Error("Name")
	}
}

func TestEuclideanSqQuadratic(t *testing.T) {
	// Object approaching then receding: closest approach computable by
	// hand. q stationary at origin; o moves (t-5, 0) => d^2 = (t-5)^2.
	q := trajectory.Stationary(0, geom.Of(0, 0))
	o := trajectory.Linear(0, geom.Of(1, 0), geom.Of(-5, 0))
	f, err := EuclideanSq{Query: q}.Curve(o, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 2.5, 5, 7, 20} {
		want := (tt - 5) * (tt - 5)
		if got := f.Eval(tt); math.Abs(got-want) > 1e-9 {
			t.Errorf("f(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestEuclideanSqPiecewise(t *testing.T) {
	// Object with a turn: curve must align with trajectory pieces.
	q := trajectory.Stationary(0, geom.Of(0, 0))
	o := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 1))
	o2, err := o.ChDir(4, geom.Of(-1, 0))
	if err != nil {
		t.Fatal(err)
	}
	f, err := EuclideanSq{Query: q}.Curve(o2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumPieces() < 2 {
		t.Errorf("NumPieces = %d, want >= 2", f.NumPieces())
	}
	for _, tt := range []float64{0, 2, 4, 6, 8} {
		pos := o2.MustAt(tt)
		want := pos.Len2()
		if got := f.Eval(tt); math.Abs(got-want) > 1e-9 {
			t.Errorf("f(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestWindowClipping(t *testing.T) {
	q := trajectory.Stationary(0, geom.Of(0))
	o := trajectory.Linear(5, geom.Of(1), geom.Of(0))
	f, err := EuclideanSq{Query: q}.Curve(o, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.Domain()
	if lo != 5 || hi != 100 {
		t.Errorf("Domain = [%g,%g], want [5,100]", lo, hi)
	}
	term, _ := o.Terminate(50)
	f, err = EuclideanSq{Query: q}.Curve(term, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, hi := f.Domain(); hi != 50 {
		t.Errorf("hi = %g, want 50 (terminated)", hi)
	}
	if _, err := (EuclideanSq{Query: q}).Curve(term, 60, 100); err == nil {
		t.Error("window after termination should fail")
	}
}

func TestDimensionMismatch(t *testing.T) {
	q := trajectory.Stationary(0, geom.Of(0, 0))
	o := trajectory.Linear(0, geom.Of(1), geom.Of(0))
	if _, err := (EuclideanSq{Query: q}.Curve(o, 0, 10)); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestPointSq(t *testing.T) {
	o := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 4))
	f, err := PointSq{Point: geom.Of(0, 0)}.Curve(o, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Eval(3); math.Abs(got-25) > 1e-9 { // (3,4) -> 25
		t.Errorf("f(3) = %g, want 25", got)
	}
	// A non-origin point: the stationary query trajectory is anchored at
	// -Inf, which used to zero its coordinates (0*Inf = NaN intercepts)
	// and silently turn every PointSq into distance-to-origin.
	g, err := PointSq{Point: geom.Of(3, 8)}.Curve(o, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Eval(3); math.Abs(got-16) > 1e-9 { // (3,4) vs (3,8) -> 16
		t.Errorf("offset f(3) = %g, want 16", got)
	}
}

func TestAxisSqAndCoordinate(t *testing.T) {
	q := trajectory.Stationary(0, geom.Of(0, 100))
	o := trajectory.Linear(0, geom.Of(1, 2), geom.Of(0, 0))
	f, err := AxisSq{Query: q, Axis: 1}.Curve(o, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// y_o = 2t, y_q = 100: (2t-100)^2 at t=10 -> 6400.
	if got := f.Eval(10); math.Abs(got-6400) > 1e-6 {
		t.Errorf("axis f(10) = %g, want 6400", got)
	}
	if _, err := (AxisSq{Query: q, Axis: 7}).Curve(o, 0, 10); err == nil {
		t.Error("axis out of range should fail")
	}
	c, err := Coordinate{Axis: 1}.Curve(o, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Eval(3); math.Abs(got-6) > 1e-9 {
		t.Errorf("coord f(3) = %g, want 6", got)
	}
}

func TestConstAndWeightedAndSum(t *testing.T) {
	o := trajectory.Linear(0, geom.Of(1), geom.Of(0))
	k, err := Const{C: 2500}.Curve(o, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Eval(7); got != 2500 {
		t.Errorf("const = %g", got)
	}
	q := trajectory.Stationary(0, geom.Of(0))
	w := Weighted{Inner: EuclideanSq{Query: q}, Weight: 2}
	f, err := w.Curve(o, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Eval(3); math.Abs(got-18) > 1e-9 {
		t.Errorf("weighted = %g, want 18", got)
	}
	s := Sum{A: EuclideanSq{Query: q}, B: Const{C: 1}}
	g, err := s.Curve(o, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Eval(3); math.Abs(got-10) > 1e-9 {
		t.Errorf("sum = %g, want 10", got)
	}
	if w.Name() == "" || s.Name() == "" || (Const{C: 1}).Name() == "" {
		t.Error("names")
	}
}

func TestInterceptTimeHeadOn(t *testing.T) {
	// Target moves right at speed 1 from origin; pursuer at (10, 0) with
	// speed 3 at t=0. Head-on: meet when 10 - u*1*... pursuer closes at
	// 3 toward target approaching: gap 10 closes at combined 4 => 2.5.
	target := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))
	td, ok := InterceptTime(geom.Of(10, 0), 0, 3, target)
	if !ok || math.Abs(td-2.5) > 1e-9 {
		t.Errorf("td = %g ok=%v, want 2.5", td, ok)
	}
}

func TestInterceptTimeChase(t *testing.T) {
	// Pursuer behind target, both along x: target at speed 1 from x=10,
	// pursuer at origin speed 2 => gap 10 closes at rate 1 => 10.
	target := trajectory.Linear(0, geom.Of(1, 0), geom.Of(10, 0))
	td, ok := InterceptTime(geom.Of(0, 0), 0, 2, target)
	if !ok || math.Abs(td-10) > 1e-9 {
		t.Errorf("td = %g ok=%v, want 10", td, ok)
	}
}

func TestInterceptTimePerpendicular(t *testing.T) {
	// Figure 1 geometry: target on horizontal line y=0 moving at speed
	// v; pursuer at (0, d) with speed v_o. Verify against the law of
	// cosines solution.
	target := trajectory.Linear(0, geom.Of(2, 0), geom.Of(0, 0))
	p := geom.Of(0, 3)
	vo := 4.0
	td, ok := InterceptTime(p, 0, vo, target)
	if !ok {
		t.Fatal("no interception")
	}
	// Meeting point: (2*td, 0); |(2 td, -3)| = 4 td
	// => 4 td^2 + 9 = 16 td^2 => td = sqrt(9/12).
	want := math.Sqrt(9.0 / 12.0)
	if math.Abs(td-want) > 1e-9 {
		t.Errorf("td = %g, want %g", td, want)
	}
}

func TestInterceptTimeEscape(t *testing.T) {
	// Target faster and fleeing: no interception.
	target := trajectory.Linear(0, geom.Of(5, 0), geom.Of(10, 0))
	if _, ok := InterceptTime(geom.Of(0, 0), 0, 1, target); ok {
		t.Error("escaping target intercepted")
	}
}

func TestInterceptTimeTerminatedTarget(t *testing.T) {
	target := trajectory.Linear(0, geom.Of(1, 0), geom.Of(100, 0))
	term, _ := target.Terminate(3)
	// Pursuer too slow to reach before termination.
	if _, ok := InterceptTime(geom.Of(0, 0), 0, 1, term); ok {
		t.Error("intercepted after target terminated")
	}
	// Fast pursuer catches in time: gap 100 closes at 99... speed 100
	// vs 1: meet just after t=1.
	td, ok := InterceptTime(geom.Of(0, 0), 0, 100, term)
	if !ok || td > 3 {
		t.Errorf("td = %g ok=%v", td, ok)
	}
}

func TestInterceptTimeAlreadyThere(t *testing.T) {
	target := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))
	td, ok := InterceptTime(geom.Of(0, 0), 0, 1, target)
	if !ok || td > 1e-9 {
		t.Errorf("td = %g ok=%v, want ~0", td, ok)
	}
}

func TestInterceptCurveMatchesExact(t *testing.T) {
	target := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))
	o := trajectory.Linear(0, geom.Of(0, -1), geom.Of(20, 30))
	ic := Intercept{Target: target, MaxErr: 1e-8}
	f, err := ic.Curve(o, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 1, 3.7, 5, 9.9} {
		want, err := ic.Eval(o, tt)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Eval(tt); math.Abs(got-want) > 1e-6 {
			t.Errorf("curve(%g) = %g, exact %g", tt, got, want)
		}
	}
	if ic.Name() == "" {
		t.Error("Name")
	}
}

func TestInterceptCurveSplitsAtTurns(t *testing.T) {
	target := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))
	o := trajectory.Linear(0, geom.Of(0, -2), geom.Of(20, 30))
	o2, _ := o.ChDir(5, geom.Of(0, -1)) // speed halves at t=5
	ic := Intercept{Target: target, MaxErr: 1e-6}
	f, err := ic.Curve(o2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Exact agreement on both sides of the kink.
	for _, tt := range []float64{4.9, 5.1} {
		want, _ := ic.Eval(o2, tt)
		if got := f.Eval(tt); math.Abs(got-want) > 1e-5 {
			t.Errorf("curve(%g) = %g, exact %g", tt, got, want)
		}
	}
	if _, err := ic.Curve(o2, 0, math.Inf(1)); err == nil {
		t.Error("infinite window should fail")
	}
}

func TestInterceptCap(t *testing.T) {
	// Unreachable target: value capped.
	target := trajectory.Linear(0, geom.Of(9, 0), geom.Of(100, 0))
	o := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0)) // slower
	ic := Intercept{Target: target, Cap: 500}
	v, err := ic.Eval(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 500 {
		t.Errorf("capped value = %g, want 500", v)
	}
}

func TestSpeedSqCurve(t *testing.T) {
	tr := trajectory.Linear(0, geom.Of(3, 4), geom.Of(0, 0)) // speed 5
	tr2, err := tr.ChDir(10, geom.Of(1, 0))                  // speed 1
	if err != nil {
		t.Fatal(err)
	}
	f, err := SpeedSq{}.Curve(tr2, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Eval(5); math.Abs(got-25) > 1e-12 {
		t.Errorf("speed^2 before turn = %g, want 25", got)
	}
	if got := f.Eval(15); math.Abs(got-1) > 1e-12 {
		t.Errorf("speed^2 after turn = %g, want 1", got)
	}
	// The jump is a reported discontinuity.
	if ds := f.Discontinuities(0, 20); len(ds) != 1 || math.Abs(ds[0]-10) > 1e-12 {
		t.Errorf("discontinuities = %v, want [10]", ds)
	}
	if (SpeedSq{}).Name() == "" {
		t.Error("Name")
	}
	// Window fully outside lifetime.
	term, _ := tr2.Terminate(20)
	if _, err := (SpeedSq{}).Curve(term, 30, 40); err == nil {
		t.Error("window after termination accepted")
	}
}

func TestGDistanceErrorPaths(t *testing.T) {
	undef := trajectory.Trajectory{}
	if _, err := (SpeedSq{}).Curve(undef, 0, 1); err == nil {
		t.Error("undefined trajectory accepted by SpeedSq")
	}
	q := trajectory.Stationary(0, geom.Of(0))
	if _, err := (EuclideanSq{Query: q}).Curve(undef, 0, 1); err == nil {
		t.Error("undefined trajectory accepted by EuclideanSq")
	}
	o := trajectory.Linear(0, geom.Of(1), geom.Of(0))
	w := Weighted{Inner: EuclideanSq{Query: trajectory.Stationary(50, geom.Of(0))}, Weight: 2}
	if _, err := w.Curve(o, 0, 10); err == nil {
		t.Error("weighted over empty overlap accepted")
	}
	s := Sum{A: Const{C: 1}, B: EuclideanSq{Query: trajectory.Stationary(50, geom.Of(0))}}
	if _, err := s.Curve(o, 0, 10); err == nil {
		t.Error("sum over empty overlap accepted")
	}
	if _, err := (Coordinate{Axis: 0}).Curve(undef, 0, 1); err == nil {
		t.Error("coordinate of undefined trajectory accepted")
	}
	if _, err := (Const{C: 1}).Curve(undef, 0, 1); err == nil {
		t.Error("const over undefined trajectory accepted")
	}
}

// TestLowerBoundMatchesCurveMinimum: on random piecewise trajectories
// and windows the closed-form bound of PointSq and EuclideanSq (with a
// turning query) agrees with the minimum of the built curve up to
// rounding, and fails on exactly the windows Curve fails on.
func TestLowerBoundMatchesCurveMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	vec := func(s float64) geom.Vec { return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5)) }
	for i := 0; i < 400; i++ {
		tr := trajectory.Linear(10*rng.Float64(), vec(20), vec(500))
		tau := tr.Start()
		for n := rng.Intn(4); n > 0; n-- {
			tau += 0.1 + 10*rng.Float64()
			next, err := tr.ChDir(tau, vec(20))
			if err != nil {
				t.Fatal(err)
			}
			tr = next
		}
		if rng.Intn(4) == 0 {
			next, err := tr.Terminate(tau + 1 + 10*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			tr = next
		}
		q := trajectory.Linear(5*rng.Float64(), vec(8), vec(100))
		q, err := q.ChDir(q.Start()+1+20*rng.Float64(), vec(8))
		if err != nil {
			t.Fatal(err)
		}
		from := 40 * rng.Float64()
		to := from + 0.01 + 30*rng.Float64()
		for _, f := range []LowerBounder{PointSq{Point: vec(300)}, EuclideanSq{Query: q}} {
			cf, cerr := f.Curve(tr, from, to)
			lb, lerr := f.LowerBound(tr, from, to)
			if (cerr == nil) != (lerr == nil) {
				t.Fatalf("case %d %s [%g,%g]: Curve err %v, LowerBound err %v", i, f.Name(), from, to, cerr, lerr)
			}
			if cerr != nil {
				continue
			}
			if min := cf.Min(); math.Abs(lb-min) > 1e-9*(1+math.Abs(min)) {
				t.Errorf("case %d %s [%g,%g]: LowerBound %.12g, curve minimum %.12g", i, f.Name(), from, to, lb, min)
			}
		}
	}
}

func TestLowerBoundEdges(t *testing.T) {
	o := trajectory.Linear(0, geom.Of(1, 0), geom.Of(-10, 3))
	p := PointSq{Point: geom.Of(0, 0)}
	for _, c := range []struct {
		from, to, want float64
	}{
		{0, 100, 9},            // closest approach at t=10
		{0, 5, 25 + 9},         // window ends before it
		{12, 20, 4 + 9},        // window starts after it
		{0, math.Inf(1), 9},    // unbounded window
		{10, 10.5, 9},          // vertex on the window's edge
		{20, math.Inf(1), 109}, // receding for good
	} {
		got, err := p.LowerBound(o, c.from, c.to)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LowerBound over [%g,%g] = %g, %v; want %g", c.from, c.to, got, err, c.want)
		}
	}
	gone, err := o.Terminate(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LowerBound(gone, 6, 9); !errors.Is(err, ErrWindow) {
		t.Errorf("window past the trajectory's end: err = %v, want ErrWindow", err)
	}
	if _, err := p.LowerBound(o, 0, 9.5); err != nil {
		t.Error(err)
	}
	if _, err := (PointSq{Point: geom.Of(0, 0, 0)}).LowerBound(o, 0, 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// A query at rest since -Inf (how PointSq.Curve models its point).
	q := EuclideanSq{Query: trajectory.Stationary(math.Inf(-1), geom.Of(0, 0))}
	if got, err := q.LowerBound(o, 0, 100); err != nil || math.Abs(got-9) > 1e-12 {
		t.Errorf("query at rest since -Inf: %g, %v; want 9", got, err)
	}
}
