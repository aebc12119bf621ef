package bead

// The exact decision kernel. Every question this package answers
// reduces to: given up to four ball constraints
//
//	‖x − c_j‖ ≤ r_j(t),   r_j(t) = ra_j·t + rb_j   (affine radii),
//
// is there a (t, x) with t in a window [w0, w1] satisfying all of them
// — and what is the set of feasible t? The centers are fixed sample
// positions; only the radii move, linearly. Two structural facts make
// an exact finite procedure possible:
//
//  1. H(t) = min_x max_j (‖x − c_j‖ − r_j(t)) is convex in t: each
//     ‖x − c_j‖ − r_j(t) is jointly convex in (t, x), the max of convex
//     functions is convex, and partial minimization over x preserves
//     convexity. So the feasible t-set {t : H(t) ≤ 0} is an interval.
//  2. At an endpoint of that interval (a "pinch"), the minimizer x*
//     has an active set A of tight constraints, and criticality forces
//     x* into the affine hull of A's centers: |A| = 1 means a radius
//     crosses zero (apex), |A| = 2 means two balls tangent (their
//     tangency times are roots of LINEAR equations in t, since the
//     centers are fixed), |A| = 3 or 4 means x* solves the
//     equal-distance linear system of the subset, whose solution is a
//     vector of quadratics in t; substituting into one sphere equation
//     gives a QUARTIC whose roots poly.RootsIn isolates exactly.
//
// So the interval's endpoints always lie in a finite, closed-form
// candidate set: window endpoints, apex times, pairwise tangency times,
// and triple/quadruple pinch roots. The kernel enumerates them, decides
// fixed-t feasibility at each (again by finite candidate points — the
// active-set geometry in the ≤3-dimensional affine hull of the
// centers), and reads the feasible interval off the feasible
// candidates. Midpoints of consecutive candidates are probed too: they
// cost almost nothing and make the procedure robust to roots that
// degenerate numerically.

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/poly"
)

// ball is one constraint ‖x − c‖ ≤ ra·t + rb.
type ball struct {
	c      geom.Vec
	ra, rb float64
}

func (b ball) rad(t float64) float64 { return b.ra*t + b.rb }

// relEps scales every tolerance in the kernel: boundary membership is
// accepted within relEps × (problem scale). The differential oracle's
// certification band sits two orders of magnitude above it, so
// tolerance-accepted boundary cases can never be refuted by the oracle.
const relEps = 1e-9

// consScale is the magnitude the tolerances are relative to: the
// largest coordinate or radius in play over the window.
func consScale(cons []ball, w0, w1 float64) float64 {
	s := 1.0
	for _, b := range cons {
		for _, c := range b.c {
			if a := math.Abs(c); a > s {
				s = a
			}
		}
		if r := math.Abs(b.rad(w0)); r > s {
			s = r
		}
		if r := math.Abs(b.rad(w1)); r > s {
			s = r
		}
	}
	return s
}

// The kernel's working storage. A possibly-within window is three balls
// (one bead and the query ball) or two (a live cap and the query ball),
// an alibi window four (two beads), and the model's space has at most a
// handful of dimensions — so every buffer below, windowScratch among
// them, is a fixed-size array on the caller's stack and the kernel
// allocates nothing. Larger systems run through the very same
// code: fit hands out heap storage when an array is too small, and the
// candidate lists simply append past their arrays.
const (
	scratchBalls = 4
	scratchDim   = 4
	scratchHull  = scratchBalls - 1 // dimension of the centers' affine hull
)

// fit returns buf[:n], or fresh heap storage when buf is too small.
func fit[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// window is one bead window's ball system over [w0, w1] with the work
// that does not depend on t done once: the tolerance scale and eps, the
// center distances of every pair, and — on first use — the Gram–Schmidt
// frame of every center subset. A query asks a window at a dozen or
// more instants; every one of them reads these instead of working them
// out again. cons[:na] and cons[na:] are the two groups disjoint pairs
// across: a bead, and the query ball or the other bead.
type window struct {
	cons   []ball
	na     int
	w0, w1 float64
	scale  float64   // consScale of cons over the window
	eps    float64   // relEps × scale
	dist   []float64 // ‖c_i − c_j‖ at dist[i*n+j], i < j
	// frames holds the frame of affineSubsets(n)[k] at
	// frames[k*stride:], built records whether it is there yet.
	frames []float64
	built  []uint8
	stride int
}

// The states of a window's subset frame.
const (
	frameUnbuilt uint8 = iota
	frameOK
	frameDependent // the subset's centers are affinely dependent
)

// scratchSubsets is len(affineSubsets(scratchBalls)): four triples and
// one quadruple.
const scratchSubsets = 5

// frameStride is the storage of one subset frame in a window of
// dimension dim: the basis, the coordinates and their squared row
// lengths of the largest subset (scratchHull + 1 centers).
func frameStride(dim int) int { return scratchHull * (dim + scratchHull + 1) }

// windowScratch is the storage of a window within the scratch bounds.
// A walk keeps one on its stack and sets every window it asks up in it.
type windowScratch struct {
	cons   [scratchBalls]ball
	dist   [scratchBalls * scratchBalls]float64
	built  [scratchSubsets]uint8
	frames [scratchSubsets * scratchHull * (scratchDim + scratchHull + 1)]float64
}

// window sets the system a ∪ b over [w0, w1] up in s, on the heap where
// s is too small, replacing the window s held before. bScale must be
// consScale(b, w0, w1): a walk asking the same b of every window — the
// query ball, whose radius is constant — works it out once.
func (s *windowScratch) window(a, b []ball, bScale, w0, w1 float64) window {
	n := len(a) + len(b)
	w := window{na: len(a), w0: w0, w1: w1}
	w.cons = append(append(fit(s.cons[:], n)[:0], a...), b...)
	// consScale(a ∪ b) is the larger of the two groups' scales.
	w.scale = math.Max(consScale(a, w0, w1), bScale)
	w.eps = relEps * w.scale
	w.dist = fit(s.dist[:], n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w.dist[i*n+j] = w.cons[i].c.Dist(w.cons[j].c)
		}
	}
	if subs := len(affineSubsets(n)); subs > 0 {
		w.stride = frameStride(len(w.cons[0].c))
		w.frames = fit(s.frames[:], subs*w.stride)
		w.built = fit(s.built[:], subs)
		clear(w.built)
	}
	return w
}

// disjoint reports whether the window is provably infeasible
// throughout by radius arithmetic alone: some ball stays empty for the
// whole window (its linear radius is negative at both ends), or some
// cross pair's centers sit farther apart than the sum of the radii ever
// reaches inside the window. Only cross pairs are tested — balls within
// one group belong to the same bead, and their joint feasibility is the
// kernel's business. Every comparison carries pruneMargin × scale of
// slack: a point the kernel would accept satisfies ‖x−c‖ ≤ r + eps per
// ball, and summing two such inequalities still violates the margin
// tested here, so a "disjoint" verdict is a proof the kernel would find
// the window infeasible too.
func (w *window) disjoint() bool {
	margin := pruneMargin * w.scale
	reach := func(b ball) float64 {
		return math.Max(b.rad(w.w0), b.rad(w.w1)) // linear: max sits at an endpoint
	}
	for _, b := range w.cons {
		if reach(b) < -margin {
			return true
		}
	}
	n := len(w.cons)
	for i := 0; i < w.na; i++ {
		ra := math.Max(0, reach(w.cons[i]))
		for j := w.na; j < n; j++ {
			if w.dist[i*n+j] > ra+math.Max(0, reach(w.cons[j]))+margin {
				return true
			}
		}
	}
	return false
}

// meets reports whether x lies in every ball, rs[i] being the radius
// of cons[i], with the eps slack.
func meets(cons []ball, rs []float64, x geom.Vec, eps float64) bool {
	for i := range cons {
		if x.Dist(cons[i].c) > rs[i]+eps {
			return false
		}
	}
	return true
}

// feasibleAt decides whether all balls share a point at time t, by
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
//
// Before any candidate is built, an instant is rejected when some pair
// of balls lies apart by more than 3·eps: ‖c_i − c_j‖ > r_i + r_j + 3·eps.
// A candidate x accepted against both would have ‖x − c_i‖ ≤ r_i + eps
// and ‖x − c_j‖ ≤ r_j + eps, and by the triangle inequality
// ‖c_i − c_j‖ ≤ r_i + r_j + 2·eps. The computed distances carry a
// rounding error of a few ulps of the scale, ~1e-15·scale, and eps is
// 1e-9·scale: the spare eps covers it a million times over, so the
// pre-test refuses only instants at which every candidate would fail.
func (w *window) feasibleAt(t float64) bool {
	cons, eps := w.cons, w.eps
	n := len(cons)
	if n == 0 {
		return false
	}
	var rbuf [scratchBalls]float64
	rs := fit(rbuf[:], n)
	for i, b := range cons {
		r := b.rad(t)
		if r < -eps {
			return false // an empty ball intersects nothing
		}
		if r < 0 {
			r = 0
		}
		rs[i] = r
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w.dist[i*n+j] > rs[i]+rs[j]+3*eps {
				return false
			}
		}
	}
	// |A| = 1: centers.
	for i := range cons {
		if meets(cons, rs, cons[i].c, eps) {
			return true
		}
	}
	// |A| = 2: the equalized point on each center segment.
	var xbuf [scratchDim]float64
	x := geom.Vec(fit(xbuf[:], len(cons[0].c)))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ci, cj := cons[i].c, cons[j].c
			d := w.dist[i*n+j]
			if d <= eps {
				continue // concentric: dominated by the center candidates
			}
			u := (d + rs[i] - rs[j]) / 2
			if u < 0 {
				u = 0
			} else if u > d {
				u = d
			}
			s := u / d
			for k := range x {
				x[k] = ci[k] + s*(cj[k]-ci[k])
			}
			if meets(cons, rs, x, eps) {
				return true
			}
		}
	}
	// |A| ≥ 3: Apollonius points of each affinely-independent subset.
	for k, sub := range affineSubsets(n) {
		if w.apolloniusMeets(rs, k, sub, x) {
			return true
		}
	}
	return false
}

// enumSubsets enumerates the index subsets of size 3 and 4 (the only
// sizes whose Apollonius systems are not already covered by the center
// and pair candidates).
func enumSubsets(n int) [][]int {
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

// subsetTable holds enumSubsets(n) for every n the scratch covers; it
// is filled once and only read afterwards.
var subsetTable = func() (tab [scratchBalls + 1][][]int) {
	for n := range tab {
		tab[n] = enumSubsets(n)
	}
	return tab
}()

// affineSubsets returns enumSubsets(n), from the table when it has it.
func affineSubsets(n int) [][]int {
	if n < len(subsetTable) {
		return subsetTable[n]
	}
	return enumSubsets(n)
}

// frame is an orthonormal frame of the affine hull of a center subset:
// m = len(sub) − 1 basis vectors (row d of basis, dim wide), every
// center difference's coordinates in them (row j of coords, m wide;
// lower-triangular with positive diagonal) and the squared length of
// each coordinate row (p2).
type frame struct {
	m, dim int
	basis  []float64
	coords []float64
	p2     []float64
}

// frame returns the frame of sub = affineSubsets(n)[k], building it on
// first use. ok is false when the centers are affinely dependent (rank
// < m) — those subsets are skipped: their pinches are already covered
// by smaller subsets (e.g. collinear centers reduce to pair
// tangencies).
func (w *window) frame(k int, sub []int) (f frame, ok bool) {
	f.m, f.dim = len(sub)-1, len(w.cons[0].c)
	mem := w.frames[k*w.stride : (k+1)*w.stride]
	b, c := f.m*f.dim, f.m*(f.dim+f.m)
	f.basis, f.coords, f.p2 = mem[:b], mem[b:c], mem[c:c+f.m]
	switch w.built[k] {
	case frameOK:
		return f, true
	case frameDependent:
		return f, false
	}
	ok = buildFrame(f, w.cons, sub, w.eps)
	w.built[k] = frameDependent
	if ok {
		w.built[k] = frameOK
	}
	return f, ok
}

// buildFrame fills f for span{c_j − c_0} by modified Gram–Schmidt and
// reports whether the centers are affinely independent.
func buildFrame(f frame, cons []ball, sub []int, eps float64) bool {
	origin := cons[sub[0]].c
	for row, idx := range sub[1:] {
		c := cons[idx].c
		v := geom.Vec(f.basis[row*f.dim : (row+1)*f.dim])
		for k := range v {
			v[k] = c[k] - origin[k]
		}
		orig := v.Len()
		p := f.coords[row*f.m : (row+1)*f.m]
		for d := 0; d < row; d++ {
			e := geom.Vec(f.basis[d*f.dim : (d+1)*f.dim])
			a := v.Dot(e)
			p[d] = a
			for k := range v {
				v[k] += -a * e[k]
			}
		}
		res := v.Len()
		if res <= eps || res <= 1e-7*orig {
			return false
		}
		inv := 1 / res
		for k := range v {
			v[k] = inv * v[k]
		}
		p[row] = res
		for d := row + 1; d < f.m; d++ {
			p[d] = 0
		}
	}
	for row := range f.p2 {
		var p2 float64
		for _, c := range f.coords[row*f.m : (row+1)*f.m] {
			p2 += c * c
		}
		f.p2[row] = p2
	}
	return true
}

// apolloniusMeets tests the candidate points with equal slack s to
// every ball of the subset: ‖x − c_j‖ = s + r_j. Subtracting the first
// equation from the others eliminates the quadratic term and leaves a
// triangular linear system M·x = q0 + s·q1 in the subset's own
// coordinates; substituting x(s) back into the first sphere equation
// closes it with a quadratic in s. x is scratch of the space's
// dimension; sub is affineSubsets(n)[k].
func (w *window) apolloniusMeets(rs []float64, k int, sub []int, x geom.Vec) bool {
	f, ok := w.frame(k, sub)
	if !ok {
		return false
	}
	m := f.m
	r0 := rs[sub[0]]
	var vbuf [4 * scratchHull]float64
	v := fit(vbuf[:], 4*m)
	q0, q1, x0, x1 := v[:m], v[m:2*m], v[2*m:3*m], v[3*m:]
	for row := 0; row < m; row++ {
		rj := rs[sub[row+1]]
		q0[row] = (f.p2[row] - rj*rj + r0*r0) / 2
		q1[row] = -(rj - r0)
	}
	if !solveLowerTriangular(f.coords, q0, x0) || !solveLowerTriangular(f.coords, q1, x1) {
		return false
	}
	a := dot(x1, x1) - 1
	b := dot(x0, x1) - r0
	c := dot(x0, x0) - r0*r0
	roots, nr := solveQuadratic(a, 2*b, c)
	for _, s := range roots[:nr] {
		copy(x, w.cons[sub[0]].c)
		for d := 0; d < m; d++ {
			xd := x0[d] + s*x1[d]
			for i, e := range f.basis[d*f.dim : (d+1)*f.dim] {
				x[i] += xd * e
			}
		}
		if meets(w.cons, rs, x, w.eps) {
			return true
		}
	}
	return false
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// solveLowerTriangular solves M·x = q by forward substitution, M being
// len(q) rows of len(q) entries. It reports false on a vanishing pivot
// (the caller's rank check makes that unreachable, but numeric dust
// gets the benefit of the doubt).
func solveLowerTriangular(M, q, x []float64) bool {
	n := len(q)
	for i := 0; i < n; i++ {
		s := q[i]
		for j := 0; j < i; j++ {
			s -= M[i*n+j] * x[j]
		}
		piv := M[i*n+i]
		if math.Abs(piv) < 1e-300 {
			return false
		}
		x[i] = s / piv
	}
	return true
}

// solveQuadratic returns the n real roots of a·s² + b·s + c, treating
// a slightly negative discriminant as a tangency (one double root) so
// touching configurations are not lost to rounding.
func solveQuadratic(a, b, c float64) (roots [2]float64, n int) {
	scale := math.Abs(a) + math.Abs(b) + math.Abs(c)
	if math.Abs(a) <= 1e-14*scale {
		if math.Abs(b) <= 1e-14*scale {
			return roots, 0
		}
		roots[0] = -c / b
		return roots, 1
	}
	disc := b*b - 4*a*c
	tol := 1e-10 * (b*b + math.Abs(4*a*c))
	if disc < -tol {
		return roots, 0
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
	roots[0] = q / a
	if math.Abs(q) > 1e-300 {
		roots[1] = c / q
		return roots, 2
	}
	return roots, 1
}

// quartic is a polynomial of degree ≤ 4 in fixed storage: c[:n] holds
// the coefficients, lowest degree first. The pinch polynomial below is
// assembled from a handful of products and sums of linear and
// quadratic terms, and doing that on poly.Poly values costs some fifty
// allocations a call. The methods here compute, value for value, what
// the poly.Poly operation of the same name computes — including its
// canonical form: after every operation but neg, coefficients within
// polyTrimEps of the largest are flushed to zero and trailing ones
// dropped — so the roots handed to the root isolator are the same.
type quartic struct {
	c [5]float64
	n int
}

// polyTrimEps is poly's relative threshold for a negligible coefficient.
const polyTrimEps = 1e-12

func (p quartic) trim() quartic {
	max := 0.0
	for _, c := range p.c[:p.n] {
		if a := math.Abs(c); a > max {
			max = a
		}
	}
	cut := max * polyTrimEps
	for p.n > 0 && math.Abs(p.c[p.n-1]) <= cut {
		p.n--
	}
	for i, c := range p.c[:p.n] {
		if math.Abs(c) <= cut {
			p.c[i] = 0
		}
	}
	return p
}

func linearQuartic(a, b float64) quartic {
	return quartic{c: [5]float64{b, a}, n: 2}.trim()
}

func constantQuartic(c float64) quartic {
	if c == 0 { //modlint:allow floatcmp -- exact: poly.Constant's choice of the empty representation
		return quartic{}
	}
	return quartic{c: [5]float64{c}, n: 1}
}

// plus returns p + sign·q for sign ±1: poly's Add and Sub.
func (p quartic) plus(sign float64, q quartic) quartic {
	r := quartic{n: max(p.n, q.n)}
	for i := range r.c[:r.n] {
		if i < p.n {
			r.c[i] += p.c[i]
		}
		if i < q.n {
			r.c[i] += sign * q.c[i]
		}
	}
	return r.trim()
}

func (p quartic) scale(c float64) quartic {
	if c == 0 { //modlint:allow floatcmp -- exact: poly.Scale's fast path to the zero polynomial
		return quartic{}
	}
	for i := range p.c[:p.n] {
		p.c[i] *= c
	}
	return p.trim()
}

// mul needs deg p + deg q ≤ 4; the pinch polynomial only squares
// linear and quadratic terms.
func (p quartic) mul(q quartic) quartic {
	if p.n == 0 || q.n == 0 {
		return quartic{}
	}
	r := quartic{n: p.n + q.n - 1}
	for i, a := range p.c[:p.n] {
		if a == 0 { //modlint:allow floatcmp -- exact: poly.Mul skips the zeros trim flushed
			continue
		}
		for j, b := range q.c[:q.n] {
			r.c[i+j] += a * b
		}
	}
	return r.trim()
}

func (p quartic) neg() quartic {
	for i := range p.c[:p.n] {
		p.c[i] = -p.c[i]
	}
	return p
}

// pinchTimes appends to cand the times at which the subset's balls
// could pinch to a single shared point: ‖x(t) − c_j‖ = r_j(t) for all j
// in the subset simultaneously. Subtracting the first sphere equation
// from the others gives a linear system with SCALAR matrix (centers are
// fixed!) and right-hand sides quadratic in t, so x(t) is a vector of
// quadratics; substituting into the first sphere equation yields a
// degree-4 polynomial whose real roots in the window are the pinch
// candidates. sub is affineSubsets(n)[k].
func (w *window) pinchTimes(cand []float64, k int, sub []int) []float64 {
	f, ok := w.frame(k, sub)
	if !ok {
		return cand
	}
	m := f.m
	b0 := w.cons[sub[0]]
	r0 := linearQuartic(b0.ra, b0.rb)
	r0sq := r0.mul(r0)
	// Forward-substitute the triangular system with the polynomial
	// right-hand sides W_j(t) = (|p_j|² + r_0(t)² − r_j(t)²) / 2:
	// every x_d(t) is quadratic in t.
	var xbuf [scratchHull]quartic
	X := xbuf[:0]
	for i := 0; i < m; i++ {
		bj := w.cons[sub[i+1]]
		rj := linearQuartic(bj.ra, bj.rb)
		p := f.coords[i*m : (i+1)*m]
		s := constantQuartic(f.p2[i]).plus(1, r0sq).plus(-1, rj.mul(rj)).scale(0.5)
		for j := 0; j < i; j++ {
			s = s.plus(-1, X[j].scale(p[j]))
		}
		if math.Abs(p[i]) < 1e-300 {
			return cand
		}
		X = append(X, s.scale(1/p[i]))
	}
	// F(t) = Σ x_d(t)² − r_0(t)², degree ≤ 4.
	F := r0sq.neg()
	for _, x := range X {
		F = F.plus(1, x.mul(x))
	}
	cand, _ = poly.Poly(F.c[:F.n]).AppendRootsIn(cand, w.w0, w.w1)
	return cand
}

// interval returns the exact sub-interval of [w0, w1] during which all
// balls share a point (empty ⇒ ok = false). By convexity the
// feasible set is an interval, and its endpoints are always among the
// closed-form candidates (see the package comment at the top of this
// file). The answer is the least and the greatest feasible candidate,
// and the scan looks for nothing else: it walks the sorted candidate
// list from the left to its first feasible time and from the right to
// its first feasible time. Those are the minimum and the maximum an
// evaluation of every candidate reports — no convexity is assumed, the
// candidates in between are simply never read. When both window ends
// are feasible they are the answer, and no candidate is built at all.
func (w *window) interval() (lo, hi float64, ok bool) {
	cons, w0, w1, eps := w.cons, w.w0, w.w1, w.eps
	if !(w0 <= w1) {
		return 0, 0, false
	}
	f0 := w.feasibleAt(w0)
	f1 := w.feasibleAt(w1)
	// A zero window end may meet a candidate that is the zero of the
	// other sign, and which of the two the sorted list then holds first
	// is the sort's business — so those windows go through the list.
	//modlint:allow floatcmp -- exact: only zero has two encodings
	if f0 && f1 && w0 != 0 && w1 != 0 {
		return w0, w1, true
	}
	n := len(cons)
	var cbuf [48]float64
	cand := append(cbuf[:0], w0, w1)
	for _, b := range cons {
		// Apex: the ball's radius crosses zero.
		cand = appendLinearRoot(cand, b.ra, b.rb)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := w.dist[i*n+j]
			// External tangency r_i + r_j = d and internal tangencies
			// r_i − r_j = ±d: all linear in t.
			cand = appendLinearRoot(cand, cons[i].ra+cons[j].ra, cons[i].rb+cons[j].rb-d)
			cand = appendLinearRoot(cand, cons[i].ra-cons[j].ra, cons[i].rb-cons[j].rb-d)
			cand = appendLinearRoot(cand, cons[i].ra-cons[j].ra, cons[i].rb-cons[j].rb+d)
		}
	}
	for k, sub := range affineSubsets(n) {
		cand = w.pinchTimes(cand, k, sub)
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
	var mbuf [2 * len(cbuf)]float64
	ts := mbuf[:0]
	for i, t := range pts {
		if i > 0 && pts[i-1] < t {
			ts = append(ts, (pts[i-1]+t)/2)
		}
		ts = append(ts, t)
	}
	// ts ascends, starts with the times equal to w0 and ends with the
	// times equal to w1, whose verdicts f0 and f1 are known.
	i, j := 0, len(ts)-1
	if !f0 {
		//modlint:allow floatcmp -- exact: steps over the copies of w0, found infeasible above
		for i <= j && (ts[i] == w0 || !w.feasibleAt(ts[i])) {
			i++
		}
		if i > j {
			return 0, 0, false
		}
	}
	if !f1 {
		//modlint:allow floatcmp -- exact: steps over the copies of w1, found infeasible above
		for j > i && (ts[j] == w1 || !w.feasibleAt(ts[j])) {
			j--
		}
	}
	// Of several equal greatest times, an evaluation of every candidate
	// keeps the first.
	//modlint:allow floatcmp -- exact: equal times share one verdict
	for j > i && ts[j-1] == ts[j] {
		j--
	}
	return ts[i], ts[j], true
}

// appendLinearRoot appends the root of a·t + b = 0 when it exists.
func appendLinearRoot(cand []float64, a, b float64) []float64 {
	if math.Abs(a) > 1e-300 {
		cand = append(cand, -b/a)
	}
	return cand
}
