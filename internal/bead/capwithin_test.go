package bead

// Cap.Within against the kernel walk it stands in for: on every verdict
// it gives, the walk of the cap's track over the same question must
// agree — the same interval bit for bit, the same pruning, and nothing
// where the cap cannot reach.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// capOutcome is how one Cap.Within verdict compared with the walk.
type capOutcome int

const (
	capMissed capOutcome = iota
	capDeferred
	capPrunedOut
	capWhole   // decided: the whole window
	capTangent // decided: from the external tangency on
	capOutcomes
)

// checkCapWithin asks the question (q, dist, [lo, hi]) of tr's cap
// through Cap.Within and of tr through the kernel walk — window set-up,
// disjoint, interval — and fails tb where the two differ on a verdict
// Within gives.
func checkCapWithin(tb testing.TB, tr *Track, q geom.Vec, dist, lo, hi float64) capOutcome {
	tb.Helper()
	c, ok := tr.Cap()
	if !ok {
		tb.Fatal("track has no cap")
	}
	cq := NewCapQuery(q, dist, lo, hi)
	iv, v := c.Within(&cq)
	ivs, st, err := tr.PossiblyWithinStats(q, dist, lo, hi)
	if err != nil {
		tb.Fatalf("walk: %v", err)
	}
	fail := func(what string) {
		tb.Helper()
		tb.Fatalf("cap %+v, q=%v dist=%g [%g, %g]: Within says %d %v, the walk %v %+v: %s",
			c, q, dist, lo, hi, v, iv, ivs, st, what)
	}
	switch v {
	case CapMiss:
		if len(ivs) > 0 {
			fail("a cap that cannot reach has an answer")
		}
		return capMissed
	case CapKernel:
		if c.T < lo && st.Windows != 1 {
			fail("a cap-only object's walk met more than the cap's window")
		}
		return capDeferred
	case CapPruned:
		if !(c.T < lo) || st != (PWStats{Windows: 1, Pruned: 1}) || len(ivs) != 0 {
			fail("the walk did not prune the one window")
		}
		return capPrunedOut
	case CapDecided:
		if !(c.T < lo) || st != (PWStats{Windows: 1, Kernel: 1}) || len(ivs) != 1 {
			fail("the walk did not find one interval in the one window")
		}
		if math.Float64bits(ivs[0].Lo) != math.Float64bits(iv.Lo) || math.Float64bits(ivs[0].Hi) != math.Float64bits(iv.Hi) {
			fail("different bits")
		}
		if iv.Lo == lo {
			return capWhole
		}
		return capTangent
	}
	fail("unknown verdict")
	return 0
}

// capCase draws one cap question. Its sample time, speed, radius and
// window come from the ranges the closed form must survive: times up to
// ±1e12, speeds 0, 1e-300 and 25 beside random ones, a zero radius,
// windows ending at ±0; and in most cases the query point sits on an
// edge of the closed form's margin band — d − r − rad(lo) or
// rad(hi) − (d − r) within ±{0, 1 ulp, eps, margin} and a few
// multiples. A few chain samples before the cap's make the walk skip
// beads, as it does for a real track.
func capCase(rng *rand.Rand) (tr *Track, q geom.Vec, dist, lo, hi float64) {
	dim := 1 + rng.Intn(3)
	scale := []float64{1e-3, 1, 1e3, 1e9}[rng.Intn(4)]
	vec := func(s float64) geom.Vec {
		v := make(geom.Vec, dim)
		for k := range v {
			v[k] = s * (rng.Float64()*2 - 1)
		}
		return v
	}
	c := vec(scale)
	if rng.Intn(4) == 0 {
		c = make(geom.Vec, dim) // distances along an axis from the origin are exact
	}
	T := scale * (rng.Float64()*20 - 10)
	switch rng.Intn(6) {
	case 0:
		T = []float64{1e12, -1e12, 1e6, -1e6}[rng.Intn(4)] * (0.5 + rng.Float64())
	case 1:
		T = math.Round(T)
	}
	V := scale * 3 * rng.Float64()
	switch rng.Intn(6) {
	case 0:
		V = []float64{0, 1e-300, 25}[rng.Intn(3)]
	case 1:
		V = math.Round(V)
	}
	dist = scale * 5 * rng.Float64()
	if rng.Intn(6) == 0 {
		dist = 0
	}
	gap := math.Abs(T) * 1e-3 * rng.Float64()
	switch rng.Intn(5) {
	case 0:
		lo = math.Nextafter(T, math.Inf(1))
	case 1:
		lo = T + 1 + 10*rng.Float64()
	default:
		lo = T + gap + 5*rng.Float64()
	}
	hi = lo + []float64{0, 1, 10 * rng.Float64(), 1e3 * rng.Float64()}[rng.Intn(4)]
	switch rng.Intn(10) { // windows ending at a zero of either sign
	case 0:
		T, lo, hi = -1-10*rng.Float64(), math.Copysign(0, -1), 5*rng.Float64()
	case 1:
		T, lo, hi = -1-10*rng.Float64(), 0, 5*rng.Float64()
	case 2:
		T, hi = -20-10*rng.Float64(), 0
		lo = -10 * rng.Float64()
	case 3:
		T, hi = -20-10*rng.Float64(), math.Copysign(0, -1)
		lo = -10 * rng.Float64()
	}
	samples := []Sample{{T: T, X: c}}
	for k := rng.Intn(4); k > 0; k-- {
		t := samples[0].T - math.Max(1, 1e-9*math.Abs(T))*(1+rng.Float64())
		samples = append([]Sample{{T: t, X: c.Add(vec(scale))}}, samples...)
	}
	tr, err := NewTrack(V, true, samples)
	if err != nil {
		panic(err)
	}

	cb := []ball{{c: c, ra: V, rb: -V * T}}
	u := vec(1)
	if u.Len() == 0 {
		u[0] = 1
	}
	u = u.Scale(1 / u.Len())
	if dim == 1 {
		u[0] = math.Copysign(1, u[0])
	}
	d := 3 * scale * rng.Float64()
	if rng.Intn(5) > 0 {
		// On an edge of the band. The scale is the kernel's, up to what
		// the query point adds to it.
		s := math.Max(consScale(cb, lo, hi), math.Max(maxAbs(c)+d, dist))
		eps, margin := relEps*s, pruneMargin*s
		edge := dist + cb[0].rad(lo)
		sign := 1.0
		if rng.Intn(2) == 0 {
			edge, sign = dist+cb[0].rad(hi), -1
		}
		off := []float64{0, 0, eps, margin, 0.5 * margin, 2 * margin, 3 * eps}[rng.Intn(7)]
		if rng.Intn(2) == 0 {
			off = -off
		}
		d = edge + sign*off
		for k := rng.Intn(3); k > 0; k-- { // one ulp, or two, either way
			d = math.Nextafter(d, math.Inf(int(sign)))
		}
		d = math.Abs(d)
	}
	q = c.AddScaled(d, u)
	return tr, q, dist, lo, hi
}

// TestCapWithinMatchesKernel holds Cap.Within to the kernel walk on
// every verdict, over random caps and the edges of its margin band, and
// wants every verdict among them.
func TestCapWithinMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var seen [capOutcomes]int
	for trial := 0; trial < 60000; trial++ {
		tr, q, dist, lo, hi := capCase(rng)
		seen[checkCapWithin(t, tr, q, dist, lo, hi)]++
	}
	t.Logf("missed %d, deferred %d, pruned %d, whole window %d, from the tangency %d",
		seen[capMissed], seen[capDeferred], seen[capPrunedOut], seen[capWhole], seen[capTangent])
	for o, n := range seen {
		if n == 0 {
			t.Errorf("outcome %d never drawn: %v", o, seen)
		}
	}
}

// FuzzCapWithin is TestCapWithinMatchesKernel's comparison over any
// question a single-sample live track can be asked.
func FuzzCapWithin(f *testing.F) {
	f.Add(0.0, 2.0, 0.0, 0.0, 10.0, 0.0, 3.0, 1.0, 8.0)  // from the tangency at t = 3.5
	f.Add(0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 3.0, 1.0, 8.0)   // the whole window
	f.Add(0.0, 2.0, 0.0, 0.0, 100.0, 0.0, 3.0, 1.0, 8.0) // out of reach
	f.Add(-5.0, 25.0, 1.0, 1.0, 40.0, -3.0, 0.0, -1.0, 0.0)
	f.Add(1e12, 25.0, 0.0, 0.0, 60.0, 0.0, 2.0, 1e12+1, 1e12+4)
	f.Add(0.0, 1e-300, 0.0, 0.0, 0.5, 0.0, 1.0, 1.0, 2.0)
	f.Fuzz(func(t *testing.T, T, V, cx, cy, qx, qy, dist, lo, hi float64) {
		for _, x := range []float64{T, V, cx, cy, qx, qy, dist, lo, hi} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
		}
		if V < 0 || dist < 0 || lo > hi {
			t.Skip()
		}
		tr, err := NewTrack(V, true, []Sample{{T: T, X: geom.Of(cx, cy)}})
		if err != nil {
			t.Skip()
		}
		checkCapWithin(t, tr, geom.Of(qx, qy), dist, lo, hi)
	})
}
