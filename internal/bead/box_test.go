package bead

// Broad-phase geometry: ChainBoxes / Cap / Pad are the conservative
// side of internal/query's BeadIndex, so the property that matters is
// one-directional — a box or cap MISS must be a proof the kernel would
// reject the window too. The tests sample feasible space-time points
// straight from the bead constraints and require the boxes to contain
// every one of them, and cross-check Cap.reaches against the exact
// PossiblyWithin decision (never "kernel says yes, cap says no").

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// TestChainBoxesContainFeasiblePoints draws random points from each
// bead (rejection-sampled against the two ball constraints) and
// requires the segment's SegBox to contain them all, with the box's
// time span matching the sample interval.
func TestChainBoxesContainFeasiblePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		samples := make([]Sample, n)
		tau := rng.Float64()
		for i := range samples {
			samples[i] = s(tau, 10*(rng.Float64()-0.5), 10*(rng.Float64()-0.5))
			tau += 0.2 + rng.Float64()
		}
		vmax := 0.1 + 3*rng.Float64() // sometimes below the required leg speed
		tr := mustTrack(t, vmax, rng.Intn(2) == 0, samples...)
		boxes := tr.ChainBoxes(0)
		if len(boxes) != n-1 {
			t.Fatalf("trial %d: %d samples gave %d boxes, want %d", trial, n, len(boxes), n-1)
		}
		for i, bx := range boxes {
			a, b := samples[i], samples[i+1]
			if bx.T0 != a.T || bx.T1 != b.T {
				t.Fatalf("trial %d box %d: time span [%g,%g], want [%g,%g]", trial, i, bx.T0, bx.T1, a.T, b.T)
			}
			v := vmax
			if req := b.X.Dist(a.X) / (b.T - a.T); req > v {
				v = req
			}
			for k := 0; k < 200; k++ {
				tt := a.T + (b.T-a.T)*rng.Float64()
				// Propose around the midpoint, keep only bead-feasible points.
				mid := a.X.Add(b.X).Scale(0.5)
				reach := v * (b.T - a.T)
				x := geom.Of(mid[0]+reach*(rng.Float64()-0.5)*2, mid[1]+reach*(rng.Float64()-0.5)*2)
				if x.Dist(a.X) > v*(tt-a.T) || x.Dist(b.X) > v*(b.T-tt) {
					continue
				}
				for d := 0; d < 2; d++ {
					if x[d] < bx.Min[d] || x[d] > bx.Max[d] {
						t.Fatalf("trial %d box %d: feasible point %v at t=%g escapes box [%v,%v]",
							trial, i, x, tt, bx.Min, bx.Max)
					}
				}
			}
			// The recorded endpoints are always feasible motion.
			for d := 0; d < 2; d++ {
				if a.X[d] < bx.Min[d] || a.X[d] > bx.Max[d] || b.X[d] < bx.Min[d] || b.X[d] > bx.Max[d] {
					t.Fatalf("trial %d box %d: sample endpoint escapes box", trial, i)
				}
			}
		}
	}
}

// TestChainBoxesSingleSample pins the two single-sample shapes: a
// terminated track yields one degenerate box at its only instant, a
// live one yields no boxes at all (the cap covers everything).
func TestChainBoxesSingleSample(t *testing.T) {
	dead := mustTrack(t, 1, false, s(2, 3, -4))
	boxes := dead.ChainBoxes(0)
	if len(boxes) != 1 || boxes[0].T0 != 2 || boxes[0].T1 != 2 {
		t.Fatalf("terminated single sample: boxes %+v, want one degenerate box at t=2", boxes)
	}
	for d, c := range geom.Of(3, -4) {
		if boxes[0].Min[d] > c || boxes[0].Max[d] < c {
			t.Fatalf("degenerate box %+v misses its own sample", boxes[0])
		}
	}
	live := mustTrack(t, 1, true, s(2, 3, -4))
	if got := live.ChainBoxes(0); len(got) != 0 {
		t.Fatalf("live single sample: boxes %+v, want none (cap only)", got)
	}
	if _, ok := live.Cap(); !ok {
		t.Fatal("live track has no cap")
	}
	if _, ok := dead.Cap(); ok {
		t.Fatal("terminated track has a cap")
	}
}

// TestCapReachesConservative cross-checks the closed-form cap test
// against the exact kernel on live single-sample tracks: whenever
// PossiblyWithin finds a feasible instant, Reaches must have said true.
// The converse direction (Reaches true, kernel empty) is allowed — the
// broad phase is a filter, not a decider — but the obvious far-away
// and before-birth cases must actually prune.
func TestCapReachesConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pruned, kept := 0, 0
	for trial := 0; trial < 300; trial++ {
		c := geom.Of(8*(rng.Float64()-0.5), 8*(rng.Float64()-0.5))
		tr := mustTrack(t, 0.2+2*rng.Float64(), true, Sample{T: 1 + rng.Float64(), X: c})
		cap0, _ := tr.Cap()
		q := geom.Of(12*(rng.Float64()-0.5), 12*(rng.Float64()-0.5))
		dist := 0.5 + 2*rng.Float64()
		lo := rng.Float64() * 3
		hi := lo + rng.Float64()*3
		ivs, _, err := tr.PossiblyWithinStats(q, dist, lo, hi)
		if err != nil {
			t.Fatalf("trial %d: PossiblyWithin: %v", trial, err)
		}
		if cap0.reaches(q.Dist(cap0.C), dist, queryPad(q, dist), hi) {
			kept++
		} else {
			pruned++
			if len(ivs) > 0 {
				t.Fatalf("trial %d: Reaches=false but kernel finds %v (cap %+v q=%v dist=%g window [%g,%g])",
					trial, ivs, cap0, q, dist, lo, hi)
			}
		}
	}
	if pruned == 0 || kept == 0 {
		t.Fatalf("degenerate trial mix: %d pruned, %d kept", pruned, kept)
	}
	// Window entirely before the cap opens: nothing to reach.
	far, _ := mustTrack(t, 100, true, s(5, 0, 0)).Cap()
	if far.reaches(far.C.Dist(geom.Of(0, 0)), 1, queryPad(geom.Of(0, 0), 1), 4) {
		t.Fatal("cap reaches a window that ends before it starts")
	}
}

// queryPad is the query-side inflation Cap.reaches is handed.
func queryPad(q geom.Vec, dist float64) float64 { return Pad(maxAbs(q) + dist) }

// TestCapReachesIsTheExpression holds Cap.reaches, whose magnitudes are
// worked out once per cap and once per query, to the expression that
// worked both out on every call, on random caps and windows — windows
// ending before the cap opens, at its very instant, and after it, at
// the scales the kernel's differential uses.
func TestCapReachesIsTheExpression(t *testing.T) {
	expr := func(c Cap, q geom.Vec, dist, lo, hi float64) bool {
		if hi < c.T {
			return false
		}
		reach := dist + c.V*(hi-c.T)
		margin := Pad(maxAbs(c.C)+c.V*(hi-c.T)) + Pad(maxAbs(q)+dist) + 0x1p-48*c.V*(math.Abs(hi)+math.Abs(c.T))
		return q.Dist(c.C) <= reach+margin
	}
	rng := rand.New(rand.NewSource(43))
	var before, at, near, reached int
	for trial := 0; trial < 20000; trial++ {
		scale := []float64{1e-3, 1, 1e9, 1e12}[rng.Intn(4)]
		vec := func() geom.Vec {
			v := make(geom.Vec, 1+trial%3)
			for k := range v {
				v[k] = scale * 8 * (rng.Float64() - 0.5)
			}
			return v
		}
		tr := mustTrack(t, scale*2*rng.Float64(), true, Sample{T: 10 * (rng.Float64() - 0.5), X: vec()})
		c, _ := tr.Cap()
		q, dist := vec(), scale*3*rng.Float64()
		var hi float64
		switch rng.Intn(3) {
		case 0:
			hi = c.T - 2*rng.Float64()
		case 1:
			hi = c.T
		default:
			hi = c.T + 3*rng.Float64()
		}
		lo := hi - 3*rng.Float64()
		if rng.Intn(4) == 0 {
			// On the edge: q as far from C as the cap's reach plus part
			// of the margin.
			dir := vec()
			grow := c.V * math.Max(0, hi-c.T)
			at := dist + grow + rng.Float64()*2*(Pad(c.cmag+grow)+queryPad(q, dist))
			q = c.C.AddScaled(at/dir.Len(), dir)
			near++
		}
		got, want := c.reaches(q.Dist(c.C), dist, queryPad(q, dist), hi), expr(c, q, dist, lo, hi)
		if got != want {
			t.Fatalf("trial %d: cap %+v q=%v dist=%g [%g, %g]: Reaches %v, expression %v", trial, c, q, dist, lo, hi, got, want)
		}
		switch {
		case hi < c.T:
			before++
		case hi == c.T:
			at++
		}
		if got {
			reached++
		}
	}
	if before == 0 || at == 0 || near == 0 || reached == 0 || reached == 20000 {
		t.Fatalf("degenerate mix: %d before the cap, %d at its instant, %d on the edge, %d reached", before, at, near, reached)
	}
}

// TestPadDominates pins the padding discipline: positive even at scale
// zero, growing with scale, and wide enough that two-sided padding
// covers the kernel's relative tolerance band at that scale.
func TestPadDominates(t *testing.T) {
	if Pad(0) <= 0 {
		t.Fatalf("Pad(0) = %g, want > 0", Pad(0))
	}
	for _, scale := range []float64{0, 1, 1e3, 1e9} {
		if Pad(scale+1) <= Pad(scale) {
			t.Fatalf("Pad not increasing at scale %g", scale)
		}
		// 1000x the kernel's relEps at the same scale (see boxPad).
		if Pad(scale) < 1000*relEps*scale {
			t.Fatalf("Pad(%g) = %g below the kernel tolerance band", scale, Pad(scale))
		}
	}
}

// TestFromTrajectory checks the knot reinterpretation: piece starts
// (plus the termination instant) become samples, liveness follows
// termination, and accessors expose what went in.
func TestFromTrajectory(t *testing.T) {
	tj := trajectory.Linear(1, geom.Of(1, 0), geom.Of(0, 0)) // x(t) = (t-1, 0) from t=1
	tj, err := tj.ChDir(3, geom.Of(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	live, err := FromTrajectory(tj, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := live.Samples(); len(got) != 2 || got[0].T != 1 || got[1].T != 3 {
		t.Fatalf("live samples %+v, want knots at t=1,3", got)
	}
	if math.IsInf(live.End(), 1) != true || live.Start() != 1 {
		t.Fatalf("live track span [%g,%g], want [1,+Inf)", live.Start(), live.End())
	}
	if live.Vmax() != 2.5 || live.Dim() != 2 {
		t.Fatalf("accessors: vmax=%g dim=%d", live.Vmax(), live.Dim())
	}
	tj, err = tj.Terminate(5)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := FromTrajectory(tj, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := dead.Samples(); len(got) != 3 || got[2].T != 5 {
		t.Fatalf("terminated samples %+v, want final sample at the termination instant", got)
	}
	if dead.End() != 5 {
		t.Fatalf("terminated End() = %g, want 5", dead.End())
	}
	if _, err := FromTrajectory(trajectory.Trajectory{}, 1); err == nil {
		t.Fatal("empty trajectory: want error")
	}
}

// TestNewTrackRejects pins the validation surface.
func TestNewTrackRejects(t *testing.T) {
	bad := []struct {
		name    string
		vmax    float64
		samples []Sample
	}{
		{"negative vmax", -1, []Sample{s(0, 0, 0)}},
		{"NaN vmax", math.NaN(), []Sample{s(0, 0, 0)}},
		{"Inf vmax", math.Inf(1), []Sample{s(0, 0, 0)}},
		{"no samples", 1, nil},
		{"zero dim", 1, []Sample{{T: 0, X: geom.Vec{}}}},
		{"NaN time", 1, []Sample{{T: math.NaN(), X: geom.Of(0, 0)}}},
		{"dim mismatch", 1, []Sample{s(0, 0, 0), {T: 1, X: geom.Of(0, 0, 0)}}},
		{"NaN coordinate", 1, []Sample{{T: 0, X: geom.Of(math.NaN(), 0)}}},
		{"non-increasing time", 1, []Sample{s(1, 0, 0), s(1, 1, 1)}},
	}
	for _, c := range bad {
		if _, err := NewTrack(c.vmax, false, c.samples); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}
