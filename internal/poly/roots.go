package poly

import (
	"math"
	"sort"
)

// RootTol is the absolute tolerance to which roots are refined. Root
// separation in the sweep workloads is orders of magnitude above this.
const RootTol = 1e-10

// maxBisect bounds bisection iterations per root; 200 halvings reduce any
// bracketing interval below 1e-45 of its width, far past RootTol.
const maxBisect = 200

// Sign classifies x against zero with an absolute tolerance scaled to the
// polynomial context in which it is used.
func signOf(x, tol float64) int {
	switch {
	case x > tol:
		return 1
	case x < -tol:
		return -1
	default:
		return 0
	}
}

// coeffScale returns the largest coefficient magnitude, used to scale
// zero-tolerances.
func (p Poly) coeffScale() float64 {
	max := 0.0
	for _, c := range p {
		if a := math.Abs(c); a > max {
			max = a
		}
	}
	return max
}

// evalWithAbs evaluates p at t by Horner's rule, and in the same pass
// evaluates sum_i |c_i| |t|^i, the magnitude budget that bounds the
// floating-point error of the evaluation.
func (p Poly) evalWithAbs(t float64) (v, abs float64) {
	at := math.Abs(t)
	for i := len(p) - 1; i >= 0; i-- {
		v = v*t + p[i]
		abs = abs*at + math.Abs(p[i])
	}
	return v, abs
}

// signEps is the relative evaluation tolerance for SignAt. It sits three
// orders of magnitude above the Horner rounding bound (~deg * 2^-52) to
// absorb coefficient dust introduced upstream by curve arithmetic.
const signEps = 1e-13

// SignAt returns the sign of p(t) (-1, 0, +1), treating values within the
// Horner evaluation error bound of zero as zero.
func (p Poly) SignAt(t float64) int {
	if p.IsZero() {
		return 0
	}
	v, abs := p.evalWithAbs(t)
	return signOf(v, signEps*abs)
}

// maxStackCoeffs bounds the coefficient count for which the one-sided
// sign cascades run allocation-free on a stack buffer. Sweep workloads
// are piecewise quadratic; longer polynomials fall back to the
// allocating loop.
const maxStackCoeffs = 12

// derivTrimInPlace replaces buf's coefficients with those of the
// polynomial's derivative, canonicalized exactly as Derivative (which
// trims), and returns the shortened slice aliasing buf.
func derivTrimInPlace(buf Poly) Poly {
	if len(buf) <= 1 {
		return buf[:0]
	}
	for i := 1; i < len(buf); i++ {
		buf[i-1] = float64(i) * buf[i]
	}
	return buf[:len(buf)-1].trimInPlace()
}

// SignAfter returns the sign of p on an interval (t, t+delta) for all
// sufficiently small delta > 0. It is the first nonzero sign in the
// derivative cascade p(t), p'(t), p”(t), ...; all derivatives zero means
// p is the zero polynomial (sign 0).
//
// This is the crossing-vs-tangency decision procedure of the sweep: it is
// exact up to the SignAt tolerance and involves no epsilon stepping. For
// the low degrees that dominate sweep workloads the cascade runs on a
// stack buffer with zero allocations.
func (p Poly) SignAfter(t float64) int {
	if len(p) <= maxStackCoeffs {
		var arr [maxStackCoeffs]float64
		buf := Poly(arr[:len(p)])
		copy(buf, p)
		for len(buf) > 0 {
			if s := buf.SignAt(t); s != 0 {
				return s
			}
			buf = derivTrimInPlace(buf)
		}
		return 0
	}
	q := p
	for !q.IsZero() {
		if s := q.SignAt(t); s != 0 {
			return s
		}
		q = q.Derivative()
	}
	return 0
}

// SignBefore returns the sign of p on (t-delta, t) for all sufficiently
// small delta > 0: the first nonzero of p(t), -p'(t), p”(t), -p”'(t)...
func (p Poly) SignBefore(t float64) int {
	if len(p) <= maxStackCoeffs {
		var arr [maxStackCoeffs]float64
		buf := Poly(arr[:len(p)])
		copy(buf, p)
		flip := 1
		for len(buf) > 0 {
			if s := buf.SignAt(t); s != 0 {
				return s * flip
			}
			buf = derivTrimInPlace(buf)
			flip = -flip
		}
		return 0
	}
	q := p
	flip := 1
	for !q.IsZero() {
		if s := q.SignAt(t); s != 0 {
			return s * flip
		}
		q = q.Derivative()
		flip = -flip
	}
	return 0
}

// RootBound returns the Cauchy bound on the magnitude of all real roots:
// 1 + max_i |a_i / a_n|. The zero and constant polynomials return 0.
func (p Poly) RootBound() float64 {
	if p.Degree() < 1 {
		return 0
	}
	lead := math.Abs(p.Lead())
	max := 0.0
	for _, c := range p[:len(p)-1] {
		if a := math.Abs(c); a > max {
			max = a
		}
	}
	return 1 + max/lead
}

// newton polishes x within [lo, hi]; it never leaves the bracket.
func newton(p Poly, x, lo, hi float64) float64 {
	for i := 0; i < 8; i++ {
		v, dv := p.EvalWithDeriv(x)
		if dv == 0 { //modlint:allow floatcmp -- exact zero-divisor guard; tiny dv is caught by the bracket check below
			break
		}
		nx := x - v/dv
		if nx < lo || nx > hi || math.IsNaN(nx) {
			break
		}
		if math.Abs(nx-x) <= RootTol*math.Max(1, math.Abs(x)) {
			return nx
		}
		x = nx
	}
	return x
}

// RootsIn returns the distinct real roots of p in the closed interval
// [a, b], in ascending order. An identically-zero p returns ok=false
// (every point is a root); callers in the sweep treat that case
// separately (curves identical on an interval).
func (p Poly) RootsIn(a, b float64) (roots []float64, ok bool) {
	return p.AppendRootsIn(nil, a, b)
}

// AppendRootsIn is RootsIn appending the roots to dst. For up to
// maxStackCoeffs coefficients all working storage is on the stack, so
// with room in dst it allocates nothing.
func (p Poly) AppendRootsIn(dst []float64, a, b float64) (roots []float64, ok bool) {
	var buf [maxStackCoeffs]float64
	out := stackOr(buf[:], len(p))
	n, ok := p.rootsIn(out, a, b)
	return append(dst, out[:n]...), ok
}

// stackOr returns buf when it holds n values and heap storage when not.
func stackOr(buf []float64, n int) []float64 {
	if n <= len(buf) {
		return buf
	}
	return make([]float64, n)
}

// rootsIn writes the roots of RootsIn to out, which has room for len(p)
// values, and returns their number.
func (p Poly) rootsIn(out []float64, a, b float64) (n int, ok bool) {
	if p.IsZero() {
		return 0, false
	}
	if p.Degree() == 0 {
		return 0, true
	}
	if a > b {
		return 0, true
	}
	// Fast paths for the degrees that dominate sweep workloads.
	if p.Degree() <= 2 {
		return lowDegreeRootsIn(out, p, a, b), true
	}
	// Critical-point decomposition for higher degrees: between
	// consecutive roots of p' the polynomial is monotone, so every real
	// root is either a sign change inside a monotone segment (found by
	// bisection, which cannot lie) or a tangency exactly at a critical
	// point (p evaluates to zero there within the Horner noise budget).
	// Unlike Sturm sequences over numerical GCDs, this degrades
	// gracefully on clustered roots and badly-scaled coefficients.
	bound := p.RootBound()
	lo := math.Max(a, -bound-1)
	hi := math.Min(b, bound+1)
	if !(lo <= hi) {
		return 0, true
	}
	// len(p) coefficients leave at most len(p)-2 critical points, so at
	// most len(p) points cut [lo, hi] and 2·len(p)-1 candidates come out
	// of them; the appends below spill to the heap past the arrays.
	var (
		dbuf, cbuf, pbuf [maxStackCoeffs]float64
		sbuf             [maxStackCoeffs]int
		rbuf             [2 * maxStackCoeffs]float64
	)
	d := derivTrimInPlace(append(Poly(dbuf[:0]), p...))
	crit := stackOr(cbuf[:], len(d))
	nc, _ := d.rootsIn(crit, lo, hi)
	pts := append(pbuf[:0], lo)
	for _, c := range crit[:nc] {
		if c > pts[len(pts)-1] {
			pts = append(pts, c)
		}
	}
	if hi > pts[len(pts)-1] {
		pts = append(pts, hi)
	}
	cand := rbuf[:0]
	signs := sbuf[:0]
	for _, x := range pts {
		s := p.SignAt(x)
		signs = append(signs, s)
		if s == 0 {
			cand = append(cand, x)
		}
	}
	for i := 0; i+1 < len(pts); i++ {
		if signs[i] != 0 && signs[i+1] != 0 && signs[i] != signs[i+1] {
			cand = append(cand, monotoneBisect(p, pts[i], pts[i+1], signs[i]))
		}
	}
	sort.Float64s(cand)
	for _, r := range cand {
		if r < a-RootTol || r > b+RootTol {
			continue
		}
		r = math.Min(math.Max(r, a), b)
		if n == 0 || r-out[n-1] > RootTol {
			out[n] = r
			n++
		}
	}
	return n, true
}

// monotoneBisect finds the unique root of p inside (lo, hi), where p is
// monotone with sign slo at lo and the opposite sign at hi.
func monotoneBisect(p Poly, lo, hi float64, slo int) float64 {
	for i := 0; i < maxBisect && hi-lo > RootTol*math.Max(1, math.Abs(lo)); i++ {
		mid := 0.5 * (lo + hi)
		if mid <= lo || mid >= hi {
			break
		}
		sm := signOf(p.Eval(mid), 0)
		switch {
		case sm == 0:
			return newton(p, mid, lo, hi)
		case sm == slo:
			lo = mid
		default:
			hi = mid
		}
	}
	return newton(p, 0.5*(lo+hi), lo, hi)
}

// lowDegreeRootsIn solves degree <= 2 in closed form, into out.
func lowDegreeRootsIn(out []float64, p Poly, a, b float64) (n int) {
	var rs [2]float64
	nr := 0
	switch p.Degree() {
	case 1:
		rs[0], nr = -p[0]/p[1], 1
	case 2:
		rs[0], rs[1], nr = quadRoots(p[2], p[1], p[0])
	}
	for _, r := range rs[:nr] {
		if r >= a-RootTol && r <= b+RootTol {
			r = math.Min(math.Max(r, a), b)
			if n == 0 || r-out[n-1] > RootTol {
				out[n] = r
				n++
			}
		}
	}
	return n
}

// quadRoots returns the real roots of a*x^2 + b*x + c in ascending
// order (n of them, 0..2; a double root once) by the numerically-stable
// quadratic formula, with no slice allocation, for the sweep's
// zero-alloc scheduling path.
func quadRoots(a, b, c float64) (r1, r2 float64, n int) {
	//modlint:allow floatcmp -- degree dispatch on pre-trimmed coefficients is exact
	if a == 0 {
		if b == 0 { //modlint:allow floatcmp -- degree dispatch on pre-trimmed coefficients is exact
			return 0, 0, 0
		}
		return -c / b, 0, 1
	}
	disc := b*b - 4*a*c
	// Relative tolerance for the discriminant: treat near-tangency as
	// tangency so that the sweep sees one (even-multiplicity) root
	// rather than two roots separated by numerical noise.
	tol := relEps * (b*b + 4*math.Abs(a*c))
	if disc < -tol {
		return 0, 0, 0
	}
	if disc <= tol {
		return -b / (2 * a), 0, 1
	}
	s := math.Sqrt(disc)
	var q float64
	if b >= 0 {
		q = -0.5 * (b + s)
	} else {
		q = -0.5 * (b - s)
	}
	r1, r2 = q/a, c/q
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	return r1, r2, 2
}

// FirstRootAfter returns the smallest real root of p that is strictly
// greater than t (by more than RootTol), searching up to hi. The boolean
// reports whether such a root exists. An identically-zero polynomial
// reports none: "always equal" is not an event.
func (p Poly) FirstRootAfter(t, hi float64) (float64, bool) {
	if p.IsZero() || p.Degree() < 1 {
		return 0, false
	}
	if hi <= t {
		return 0, false
	}
	if p.Degree() <= 2 {
		// Closed-form fast path, allocation-free: the same candidate
		// roots, [t-RootTol, hi+RootTol] filter, clamp and RootTol dedup
		// as RootsIn -> lowDegreeRootsIn, scanned in ascending order for
		// the first root strictly past t.
		var r1, r2 float64
		var n int
		if p.Degree() == 1 {
			r1, n = -p[0]/p[1], 1
		} else {
			r1, r2, n = quadRoots(p[2], p[1], p[0])
		}
		prev, havePrev := 0.0, false
		for i := 0; i < n; i++ {
			r := r1
			if i == 1 {
				r = r2
			}
			if !(r >= t-RootTol && r <= hi+RootTol) {
				continue
			}
			r = math.Min(math.Max(r, t), hi)
			if havePrev && !(r-prev > RootTol) {
				continue
			}
			if r > t+RootTol {
				return r, true
			}
			prev, havePrev = r, true
		}
		return 0, false
	}
	roots, ok := p.RootsIn(t, hi)
	if !ok {
		return 0, false
	}
	for _, r := range roots {
		if r > t+RootTol {
			return r, true
		}
	}
	return 0, false
}
