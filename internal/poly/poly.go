// Package poly implements univariate real polynomials with hand-rolled
// real-root isolation, the numeric core of the plane-sweep evaluation
// technique of Mokhtar, Su and Ibarra (PODS 2002).
//
// The sweep needs three primitives from polynomials:
//
//   - evaluation (ordering curves along the sweep line),
//   - the first real root of a difference curve after a given time
//     (the next intersection of two adjacent g-distance curves), and
//   - the sign of a polynomial immediately before/after one of its roots
//     (deciding whether an intersection is a crossing or a tangency).
//
// Root isolation solves degrees up to 2 in closed form; above that it
// splits the interval at the critical points (the roots of p', found the
// same way) into monotone stretches and bisects each sign change, with
// Newton polishing. Degrees in this system are small (g-distances of
// piecewise-linear trajectories are piecewise quadratic), but the code is
// written to stay robust through degree ~16.
package poly

import (
	"fmt"
	"math"
	"strings"
)

// Poly is a polynomial in one variable; Poly[i] is the coefficient of t^i.
// The zero polynomial is represented by an empty (or all-zero) slice.
// Poly values are immutable by convention: operations return fresh slices.
type Poly []float64

// relEps is the relative tolerance below which a coefficient is considered
// zero when computing effective degrees during arithmetic. It is
// deliberately loose compared to machine epsilon because cancellation in
// curve differences leaves ~1e-16-scale dust.
const relEps = 1e-12

// New builds a polynomial from coefficients in ascending-degree order:
// New(c0, c1, c2) is c0 + c1*t + c2*t^2.
func New(coeffs ...float64) Poly {
	p := make(Poly, len(coeffs))
	copy(p, coeffs)
	return p.trim()
}

// Constant returns the constant polynomial c.
func Constant(c float64) Poly {
	if c == 0 { //modlint:allow floatcmp -- exact fast path: representation choice, same value either way
		return Poly{}
	}
	return Poly{c}
}

// Linear returns b + a*t.
func Linear(a, b float64) Poly { return New(b, a) }

// FromRoots returns the monic polynomial with the given roots.
func FromRoots(roots ...float64) Poly {
	p := Poly{1}
	for _, r := range roots {
		p = p.Mul(Poly{-r, 1})
	}
	return p
}

// trim removes trailing coefficients that are negligible relative to the
// largest coefficient magnitude, returning the canonical representation.
func (p Poly) trim() Poly {
	max := 0.0
	for _, c := range p {
		if a := math.Abs(c); a > max {
			max = a
		}
	}
	if max == 0 { //modlint:allow floatcmp -- inf-norm is exactly 0 iff every coefficient is exactly 0
		return Poly{}
	}
	cut := max * relEps
	n := len(p)
	for n > 0 && math.Abs(p[n-1]) <= cut {
		n--
	}
	q := p[:n]
	// Flush sub-threshold interior dust to exact zeros so that later
	// operations see clean input.
	out := make(Poly, n)
	for i, c := range q {
		if math.Abs(c) <= cut {
			out[i] = 0
		} else {
			out[i] = c
		}
	}
	return out
}

// trimInPlace is trim without the fresh allocation: the same inf-norm
// cut, trailing-coefficient strip and interior dust flush, applied to
// p's own storage. The returned slice aliases p. Values produced are
// bit-identical to trim's.
func (p Poly) trimInPlace() Poly {
	max := 0.0
	for _, c := range p {
		if a := math.Abs(c); a > max {
			max = a
		}
	}
	if max == 0 { //modlint:allow floatcmp -- inf-norm is exactly 0 iff every coefficient is exactly 0
		return p[:0]
	}
	cut := max * relEps
	n := len(p)
	for n > 0 && math.Abs(p[n-1]) <= cut {
		n--
	}
	q := p[:n]
	for i, c := range q {
		if math.Abs(c) <= cut {
			q[i] = 0
		}
	}
	return q
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int { return len(p) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p) == 0 }

// Lead returns the leading coefficient, or 0 for the zero polynomial.
func (p Poly) Lead() float64 {
	if len(p) == 0 {
		return 0
	}
	return p[len(p)-1]
}

// Clone returns an independent copy of p.
func (p Poly) Clone() Poly {
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// Eval evaluates p at t using Horner's rule.
func (p Poly) Eval(t float64) float64 {
	v := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		v = v*t + p[i]
	}
	return v
}

// EvalWithDeriv evaluates p and its first derivative at t in one pass.
func (p Poly) EvalWithDeriv(t float64) (v, dv float64) {
	for i := len(p) - 1; i >= 0; i-- {
		dv = dv*t + v
		v = v*t + p[i]
	}
	return v, dv
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	r := make(Poly, n)
	for i := range r {
		if i < len(p) {
			r[i] += p[i]
		}
		if i < len(q) {
			r[i] += q[i]
		}
	}
	return r.trim()
}

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	r := make(Poly, n)
	for i := range r {
		if i < len(p) {
			r[i] += p[i]
		}
		if i < len(q) {
			r[i] -= q[i]
		}
	}
	return r.trim()
}

// SubInto computes p - q into dst's storage, growing it only when its
// capacity is too small, and returns the canonical (trimmed) result.
// The value is identical to p.Sub(q) bit for bit — trimming flushes any
// surviving signed zeros to +0, so storage reuse cannot leak a -0 that
// Sub's fresh allocation would not produce. The sweep's hot path uses
// this to recycle difference-polynomial storage across reschedules.
func SubInto(dst, p, q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	if cap(dst) < n {
		dst = make(Poly, n)
	}
	r := dst[:n]
	for i := range r {
		var c float64
		if i < len(p) {
			c = p[i]
		}
		if i < len(q) {
			c -= q[i]
		}
		r[i] = c
	}
	return r.trimInPlace()
}

// Neg returns -p.
func (p Poly) Neg() Poly {
	r := make(Poly, len(p))
	for i, c := range p {
		r[i] = -c
	}
	return r
}

// Scale returns c*p.
func (p Poly) Scale(c float64) Poly {
	if c == 0 { //modlint:allow floatcmp -- exact fast path: 0*p is the zero polynomial either way
		return Poly{}
	}
	r := make(Poly, len(p))
	for i, x := range p {
		r[i] = c * x
	}
	return r.trim()
}

// Mul returns p*q.
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Poly{}
	}
	r := make(Poly, len(p)+len(q)-1)
	for i, a := range p {
		if a == 0 { //modlint:allow floatcmp -- exact fast path over trim-flushed zeros; skipping changes nothing
			continue
		}
		for j, b := range q {
			r[i+j] += a * b
		}
	}
	return r.trim()
}

// Derivative returns dp/dt.
func (p Poly) Derivative() Poly {
	if len(p) <= 1 {
		return Poly{}
	}
	r := make(Poly, len(p)-1)
	for i := 1; i < len(p); i++ {
		r[i-1] = float64(i) * p[i]
	}
	return r.trim()
}

// ApproxEq reports |a-b| <= eps: the repo-wide epsilon comparison for
// computed floating-point values (curve times, evaluations, coefficients
// that have been through arithmetic). The static analyzer (cmd/modlint,
// floatcmp) rejects exact == / != on floats outside annotated
// provably-exact sites; this helper is the sanctioned alternative.
func ApproxEq(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// ApproxZero reports |x| <= eps; shorthand for ApproxEq(x, 0, eps).
func ApproxZero(x, eps float64) bool {
	return math.Abs(x) <= eps
}

// Equal reports exact coefficient equality after trimming.
func (p Poly) Equal(q Poly) bool {
	a, b := p.trim(), q.trim()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders p in conventional descending-degree notation, e.g.
// "2t^2 - t + 3".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	first := true
	for i := len(p) - 1; i >= 0; i-- {
		c := p[i]
		if c == 0 { //modlint:allow floatcmp -- display: suppress exactly-zero terms only
			continue
		}
		switch {
		case first && c < 0:
			b.WriteString("-")
		case !first && c < 0:
			b.WriteString(" - ")
		case !first:
			b.WriteString(" + ")
		}
		a := math.Abs(c)
		switch {
		case i == 0:
			fmt.Fprintf(&b, "%g", a)
		case a == 1 && i == 1: //modlint:allow floatcmp -- display: drop unit coefficient only when exactly 1
			b.WriteString("t")
		case a == 1: //modlint:allow floatcmp -- display: drop unit coefficient only when exactly 1
			fmt.Fprintf(&b, "t^%d", i)
		case i == 1:
			fmt.Fprintf(&b, "%gt", a)
		default:
			fmt.Fprintf(&b, "%gt^%d", a, i)
		}
		first = false
	}
	if first {
		return "0"
	}
	return b.String()
}
