package bead

// The reference kernel: the closed-form decision procedure exactly as
// it stood before the allocation-free rewrite of kernel.go — fresh
// geom.Vec temporaries, a rebuilt subset table, and a feasibleInterval
// that evaluates feasibleAt at every candidate time and takes min and
// max. kernel_differential_test.go holds the production kernel to it
// bit for bit; nothing outside tests may call it.

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/poly"
)

// refFeasibleAt decides whether all balls share a point at time t, by
// candidate enumeration in the affine hull of the centers:
//
//   - Fixed-t feasibility only depends on the geometry inside the
//     affine hull H of the centers: for x = h + w with h ∈ H and w ⊥ H,
//     every ‖x − c_j‖ only grows with ‖w‖, so a feasible point exists
//     iff one exists inside H (dim ≤ len(cons) − 1 ≤ 3).
//   - If the intersection is nonempty, the point x* minimizing the
//     worst deficit max_j(‖x − c_j‖ − r_j) has an active set A whose
//     criticality pins it: |A| = 1 puts x* at that ball's center
//     region (center candidate suffices), |A| = 2 puts it on the
//     segment between the two centers at the equalized split, |A| ≥ 3
//     makes it an Apollonius point of the subset (equal slack s to all:
//     a linear system in x given s, closed by a quadratic in s).
//
// Each candidate is tested against every ball with the eps slack.
func refFeasibleAt(cons []ball, t, eps float64) bool {
	n := len(cons)
	cs := make([]geom.Vec, n)
	rs := make([]float64, n)
	for i, b := range cons {
		r := b.rad(t)
		if r < -eps {
			return false // an empty ball intersects nothing
		}
		if r < 0 {
			r = 0
		}
		cs[i] = b.c
		rs[i] = r
	}
	meets := func(x geom.Vec) bool {
		for i := range cs {
			if x.Sub(cs[i]).Len() > rs[i]+eps {
				return false
			}
		}
		return true
	}
	// |A| = 1: centers.
	for i := range cs {
		if meets(cs[i]) {
			return true
		}
	}
	// |A| = 2: the equalized point on each center segment.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := cs[i].Sub(cs[j]).Len()
			if d <= eps {
				continue // concentric: dominated by the center candidates
			}
			u := (d + rs[i] - rs[j]) / 2
			if u < 0 {
				u = 0
			} else if u > d {
				u = d
			}
			if meets(cs[i].AddScaled(u/d, cs[j].Sub(cs[i]))) {
				return true
			}
		}
	}
	// |A| ≥ 3: Apollonius points of each affinely-independent subset.
	for _, sub := range refAffineSubsets(n) {
		for _, x := range refApolloniusPoints(cs, rs, sub, eps) {
			if meets(x) {
				return true
			}
		}
	}
	return false
}

// refAffineSubsets enumerates the index subsets of size 3 and 4 (the only
// sizes whose Apollonius systems are not already covered by the center
// and pair candidates). n is at most 5 in practice.
func refAffineSubsets(n int) [][]int {
	var out [][]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				out = append(out, []int{i, j, k})
				for l := k + 1; l < n; l++ {
					out = append(out, []int{i, j, k, l})
				}
			}
		}
	}
	return out
}

// refOrthoBasis builds an orthonormal basis of span{c_j − c_0} by modified
// Gram–Schmidt, returning the basis and each difference's coordinates.
// ok is false when the centers are affinely dependent (rank < m−1) —
// those subsets are skipped: their pinches are already covered by
// smaller subsets (e.g. collinear centers reduce to pair tangencies).
func refOrthoBasis(cs []geom.Vec, sub []int, eps float64) (basis []geom.Vec, coords [][]float64, ok bool) {
	origin := cs[sub[0]]
	for _, idx := range sub[1:] {
		v := cs[idx].Sub(origin)
		orig := v.Len()
		p := make([]float64, 0, len(sub)-1)
		for _, e := range basis {
			d := v.Dot(e)
			p = append(p, d)
			v = v.AddScaled(-d, e)
		}
		res := v.Len()
		if res <= eps || res <= 1e-7*orig {
			return nil, nil, false
		}
		basis = append(basis, v.Scale(1/res))
		p = append(p, res)
		// Pad to full width so every coords row has len(sub)-1 entries.
		for len(p) < len(sub)-1 {
			p = append(p, 0)
		}
		coords = append(coords, p)
	}
	return basis, coords, true
}

// refApolloniusPoints returns the candidate points with equal slack s to
// every ball of the subset: ‖x − c_j‖ = s + r_j. Subtracting the first
// equation from the others eliminates the quadratic term and leaves a
// triangular linear system M·x = q0 + s·q1 in the subset's own
// coordinates; substituting x(s) back into the first sphere equation
// closes it with a quadratic in s.
func refApolloniusPoints(cs []geom.Vec, rs []float64, sub []int, eps float64) []geom.Vec {
	basis, coords, ok := refOrthoBasis(cs, sub, eps)
	if !ok {
		return nil
	}
	m := len(sub) - 1 // system size = hull dimension
	r0 := rs[sub[0]]
	q0 := make([]float64, m)
	q1 := make([]float64, m)
	for row := 0; row < m; row++ {
		rj := rs[sub[row+1]]
		p := coords[row]
		var p2 float64
		for _, x := range p {
			p2 += x * x
		}
		q0[row] = (p2 - rj*rj + r0*r0) / 2
		q1[row] = -(rj - r0)
	}
	// coords is lower-triangular with positive diagonal by construction.
	x0 := refSolveLowerTriangular(coords, q0)
	x1 := refSolveLowerTriangular(coords, q1)
	if x0 == nil || x1 == nil {
		return nil
	}
	var a, b, c float64
	a = refDot(x1, x1) - 1
	b = refDot(x0, x1) - r0
	c = refDot(x0, x0) - r0*r0
	origin := cs[sub[0]]
	var out []geom.Vec
	for _, s := range refSolveQuadratic(a, 2*b, c) {
		x := origin.Clone()
		for d := 0; d < m; d++ {
			x = x.AddScaled(x0[d]+s*x1[d], basis[d])
		}
		out = append(out, x)
	}
	return out
}

func refDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// refSolveLowerTriangular solves M·x = q by forward substitution. Returns
// nil on a vanishing pivot (the caller's rank check makes that
// unreachable, but numeric dust gets the benefit of the doubt).
func refSolveLowerTriangular(M [][]float64, q []float64) []float64 {
	n := len(q)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := q[i]
		for j := 0; j < i; j++ {
			s -= M[i][j] * x[j]
		}
		piv := M[i][i]
		if math.Abs(piv) < 1e-300 {
			return nil
		}
		x[i] = s / piv
	}
	return x
}

// refSolveQuadratic returns the real roots of a·s² + b·s + c, treating a
// slightly negative discriminant as a tangency (one double root) so
// touching configurations are not lost to rounding.
func refSolveQuadratic(a, b, c float64) []float64 {
	scale := math.Abs(a) + math.Abs(b) + math.Abs(c)
	if math.Abs(a) <= 1e-14*scale {
		if math.Abs(b) <= 1e-14*scale {
			return nil
		}
		return []float64{-c / b}
	}
	disc := b*b - 4*a*c
	tol := 1e-10 * (b*b + math.Abs(4*a*c))
	if disc < -tol {
		return nil
	}
	if disc < 0 {
		disc = 0
	}
	sq := math.Sqrt(disc)
	var q float64
	if b >= 0 {
		q = -(b + sq) / 2
	} else {
		q = -(b - sq) / 2
	}
	roots := []float64{q / a}
	if math.Abs(q) > 1e-300 {
		roots = append(roots, c/q)
	}
	return roots
}

// refPinchTimes returns the candidate times at which the subset's balls
// could pinch to a single shared point: ‖x(t) − c_j‖ = r_j(t) for all j
// in the subset simultaneously. Subtracting the first sphere equation
// from the others gives a linear system with SCALAR matrix (centers are
// fixed!) and right-hand sides quadratic in t, so x(t) is a vector of
// quadratics; substituting into the first sphere equation yields a
// degree-4 polynomial whose real roots in the window are the pinch
// candidates.
func refPinchTimes(cons []ball, sub []int, w0, w1, eps float64) []float64 {
	cs := make([]geom.Vec, len(cons))
	for i, b := range cons {
		cs[i] = b.c
	}
	_, coords, ok := refOrthoBasis(cs, sub, eps)
	if !ok {
		return nil
	}
	m := len(sub) - 1
	b0 := cons[sub[0]]
	r0 := poly.Linear(b0.ra, b0.rb)
	r0sq := r0.Mul(r0)
	// W_j(t) = (|p_j|² + r_0(t)² − r_j(t)²) / 2, quadratic in t.
	W := make([]poly.Poly, m)
	for row := 0; row < m; row++ {
		bj := cons[sub[row+1]]
		rj := poly.Linear(bj.ra, bj.rb)
		p := coords[row]
		var p2 float64
		for _, x := range p {
			p2 += x * x
		}
		W[row] = poly.Constant(p2).Add(r0sq).Sub(rj.Mul(rj)).Scale(0.5)
	}
	// Forward-substitute the triangular system with polynomial RHS:
	// x_d(t) quadratic in t.
	X := make([]poly.Poly, m)
	for i := 0; i < m; i++ {
		s := W[i]
		for j := 0; j < i; j++ {
			s = s.Sub(X[j].Scale(coords[i][j]))
		}
		piv := coords[i][i]
		if math.Abs(piv) < 1e-300 {
			return nil
		}
		X[i] = s.Scale(1 / piv)
	}
	// F(t) = Σ x_d(t)² − r_0(t)², degree ≤ 4.
	F := r0sq.Neg()
	for d := 0; d < m; d++ {
		F = F.Add(X[d].Mul(X[d]))
	}
	roots, _ := F.RootsIn(w0, w1)
	return roots
}

// refFeasibleInterval returns the exact sub-interval of [w0, w1] during
// which all balls share a point (empty ⇒ ok = false). By convexity the
// feasible set is an interval, and its endpoints are always among the
// closed-form candidates (see the package comment at the top of this
// file); the interval is read off the feasible candidates directly.
func refFeasibleInterval(cons []ball, w0, w1 float64) (lo, hi float64, ok bool) {
	if !(w0 <= w1) {
		return 0, 0, false
	}
	scale := consScale(cons, w0, w1)
	eps := relEps * scale
	n := len(cons)
	cand := make([]float64, 0, 32)
	cand = append(cand, w0, w1)
	for _, b := range cons {
		// Apex: the ball's radius crosses zero.
		if math.Abs(b.ra) > 1e-300 {
			cand = append(cand, -b.rb/b.ra)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := cons[i].c.Sub(cons[j].c).Len()
			// External tangency r_i + r_j = d and internal tangencies
			// r_i − r_j = ±d: all linear in t.
			refAddLinearRoot(&cand, cons[i].ra+cons[j].ra, cons[i].rb+cons[j].rb-d)
			refAddLinearRoot(&cand, cons[i].ra-cons[j].ra, cons[i].rb-cons[j].rb-d)
			refAddLinearRoot(&cand, cons[i].ra-cons[j].ra, cons[i].rb-cons[j].rb+d)
		}
	}
	for _, sub := range refAffineSubsets(n) {
		cand = append(cand, refPinchTimes(cons, sub, w0, w1, eps)...)
	}
	// Clip into the window, sort, add midpoints of consecutive distinct
	// candidates (cheap insurance against degenerate root isolation).
	pts := cand[:0]
	for _, t := range cand {
		if t >= w0-eps && t <= w1+eps {
			pts = append(pts, math.Min(math.Max(t, w0), w1))
		}
	}
	sort.Float64s(pts)
	withMid := make([]float64, 0, 2*len(pts))
	for i, t := range pts {
		if i > 0 && pts[i-1] < t {
			withMid = append(withMid, (pts[i-1]+t)/2)
		}
		withMid = append(withMid, t)
	}
	found := false
	for _, t := range withMid {
		if refFeasibleAt(cons, t, eps) {
			if !found {
				lo, hi = t, t
				found = true
			} else {
				if t < lo {
					lo = t
				}
				if t > hi {
					hi = t
				}
			}
		}
	}
	return lo, hi, found
}

// refAddLinearRoot appends the root of a·t + b = 0 when it exists.
func refAddLinearRoot(cand *[]float64, a, b float64) {
	if math.Abs(a) > 1e-300 {
		*cand = append(*cand, -b/a)
	}
}
