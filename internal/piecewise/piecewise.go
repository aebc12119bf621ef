// Package piecewise implements piecewise-polynomial functions of time,
// the representation of generalized-distance curves in the plane-sweep
// evaluator. A "polynomial g-distance" in the paper's sense (Section 5) is
// exactly a function that "consists of finitely many pieces and is
// piecewise polynomial"; this package provides that type together with the
// operations the sweep needs: pointwise algebra and, for a pair of
// curves, the next meeting time and the one-sided signs of their
// difference (lazy.go, diff.go).
package piecewise

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/poly"
)

// Piece is one polynomial segment of a piecewise function, valid on the
// closed time interval [Start, End]. End may be +Inf for the final piece.
type Piece struct {
	Start, End float64
	P          poly.Poly
}

// Func is a piecewise-polynomial function on a contiguous domain
// [Domain()]. Pieces are sorted and contiguous: pieces[i].End ==
// pieces[i+1].Start. At shared boundaries the function value is taken from
// either side; continuity is the caller's contract for g-distances (the
// paper's relaxation to finitely many continuous pieces is supported: the
// sweep re-certifies at discontinuities).
type Func struct {
	pieces []Piece
}

// boundTol is the slack used when locating the piece containing a time.
const boundTol = 1e-9

// ErrEmptyDomain is returned when an operation would produce a function
// with an empty domain.
var ErrEmptyDomain = errors.New("piecewise: empty domain")

// New validates and builds a Func from pieces. Pieces must be non-empty,
// in ascending order, contiguous, and have Start < End (except a single
// degenerate point domain is rejected).
func New(pieces ...Piece) (Func, error) {
	if len(pieces) == 0 {
		return Func{}, errors.New("piecewise: no pieces")
	}
	for i, pc := range pieces {
		if !(pc.Start < pc.End) {
			return Func{}, fmt.Errorf("piecewise: piece %d has empty interval [%g,%g]", i, pc.Start, pc.End)
		}
		if i > 0 && pieces[i-1].End != pc.Start { //modlint:allow floatcmp -- breakpoints are propagated bit-identically; an epsilon here would mask construction bugs
			return Func{}, fmt.Errorf("piecewise: gap between piece %d (ends %g) and %d (starts %g)",
				i-1, pieces[i-1].End, i, pc.Start)
		}
	}
	cp := make([]Piece, len(pieces))
	copy(cp, pieces)
	return Func{pieces: cp}, nil
}

// MustNew is New for statically-known-good inputs (tests, examples).
func MustNew(pieces ...Piece) Func {
	f, err := New(pieces...)
	if err != nil {
		panic(err)
	}
	return f
}

// FromPoly wraps a single polynomial on [start, end].
func FromPoly(p poly.Poly, start, end float64) Func {
	return Func{pieces: []Piece{{Start: start, End: end, P: p}}}
}

// Constant is the constant function c on [start, end]. Constant curves
// model the real-number constants of FO(f) queries as stationary curves in
// the sweep order.
func Constant(c, start, end float64) Func {
	return FromPoly(poly.Constant(c), start, end)
}

// Domain returns the closed domain [lo, hi] of f (hi may be +Inf).
func (f Func) Domain() (lo, hi float64) {
	if len(f.pieces) == 0 {
		return math.NaN(), math.NaN()
	}
	return f.pieces[0].Start, f.pieces[len(f.pieces)-1].End
}

// IsZeroLen reports whether f has no pieces (the zero value).
func (f Func) IsZeroLen() bool { return len(f.pieces) == 0 }

// NumPieces returns the number of polynomial segments.
func (f Func) NumPieces() int { return len(f.pieces) }

// Pieces returns a copy of the segments.
func (f Func) Pieces() []Piece {
	out := make([]Piece, len(f.pieces))
	copy(out, f.pieces)
	return out
}

// pieceIndexAt returns the index of the piece whose interval contains t,
// preferring the piece that starts at t when t is a shared boundary
// (so one-sided "after" semantics come out of the containing-piece rule).
// Returns -1 when t is outside the domain by more than boundTol.
func (f Func) pieceIndexAt(t float64) int {
	n := len(f.pieces)
	if n == 0 {
		return -1
	}
	if t < f.pieces[0].Start-boundTol || t > f.pieces[n-1].End+boundTol {
		return -1
	}
	// Binary search for the first piece with End >= t.
	i := sort.Search(n, func(i int) bool { return f.pieces[i].End >= t })
	if i == n {
		i = n - 1
	}
	// Prefer the following piece when t sits exactly at this piece's end.
	if i+1 < n && t >= f.pieces[i].End {
		i++
	}
	return i
}

// Eval evaluates f at t. Outside the domain it evaluates the nearest
// boundary piece's polynomial (extrapolation); use InDomain to guard when
// that matters. The sweep always evaluates in-domain.
func (f Func) Eval(t float64) float64 {
	i := f.pieceIndexAt(t)
	if i < 0 {
		if len(f.pieces) == 0 {
			return math.NaN()
		}
		if t < f.pieces[0].Start {
			i = 0
		} else {
			i = len(f.pieces) - 1
		}
	}
	return f.pieces[i].P.Eval(t)
}

// Min returns the least value f takes on its domain: the smallest of
// every piece's endpoint and interior critical values. An unbounded last
// piece that falls without limit gives -Inf.
func (f Func) Min() float64 {
	m := math.Inf(1)
	for _, pc := range f.pieces {
		m = math.Min(m, pc.P.Eval(pc.Start))
		if !math.IsInf(pc.End, 1) {
			m = math.Min(m, pc.P.Eval(pc.End))
		} else if pc.P.Degree() >= 1 && pc.P.Lead() < 0 {
			return math.Inf(-1)
		}
		if pc.P.Degree() < 2 {
			continue
		}
		crit, _ := pc.P.Derivative().RootsIn(pc.Start, pc.End)
		for _, c := range crit {
			m = math.Min(m, pc.P.Eval(c))
		}
	}
	return m
}

// InDomain reports whether t lies within the domain (with boundTol slack).
func (f Func) InDomain(t float64) bool { return f.pieceIndexAt(t) >= 0 }

// breakpoints returns the merged sorted interior breakpoints of f and g
// within [lo, hi].
func mergedBreaks(f, g Func, lo, hi float64) []float64 {
	var bs []float64
	add := func(x float64) {
		if x > lo && x < hi {
			bs = append(bs, x)
		}
	}
	for _, pc := range f.pieces {
		add(pc.Start)
		add(pc.End)
	}
	for _, pc := range g.pieces {
		add(pc.Start)
		add(pc.End)
	}
	sort.Float64s(bs)
	// Deduplicate.
	out := bs[:0]
	for _, x := range bs {
		if len(out) == 0 || x-out[len(out)-1] > 0 {
			out = append(out, x)
		}
	}
	return out
}

// combine applies op to aligned pieces of f and g over the intersection of
// their domains.
func combine(f, g Func, op func(a, b poly.Poly) poly.Poly) (Func, error) {
	flo, fhi := f.Domain()
	glo, ghi := g.Domain()
	lo, hi := math.Max(flo, glo), math.Min(fhi, ghi)
	if !(lo < hi) {
		return Func{}, ErrEmptyDomain
	}
	breaks := mergedBreaks(f, g, lo, hi)
	bounds := make([]float64, 0, len(breaks)+2)
	bounds = append(bounds, lo)
	bounds = append(bounds, breaks...)
	bounds = append(bounds, hi)
	pieces := make([]Piece, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		var mid float64
		if math.IsInf(b, 1) {
			mid = a + 1
		} else {
			mid = 0.5 * (a + b)
		}
		fi := f.pieceIndexAt(mid)
		gi := g.pieceIndexAt(mid)
		if fi < 0 || gi < 0 {
			return Func{}, fmt.Errorf("piecewise: internal alignment failure at t=%g", mid)
		}
		pieces = append(pieces, Piece{Start: a, End: b, P: op(f.pieces[fi].P, g.pieces[gi].P)})
	}
	return Func{pieces: pieces}, nil
}

// Sub returns f - g on the intersection of domains. This is the curve
// whose zeros are the intersections of f and g.
func (f Func) Sub(g Func) (Func, error) {
	return combine(f, g, func(a, b poly.Poly) poly.Poly { return a.Sub(b) })
}

// Add returns f + g on the intersection of domains.
func (f Func) Add(g Func) (Func, error) {
	return combine(f, g, func(a, b poly.Poly) poly.Poly { return a.Add(b) })
}

// Mul returns f * g on the intersection of domains.
func (f Func) Mul(g Func) (Func, error) {
	return combine(f, g, func(a, b poly.Poly) poly.Poly { return a.Mul(b) })
}

// Scale returns c*f.
func (f Func) Scale(c float64) Func {
	pieces := make([]Piece, len(f.pieces))
	for i, pc := range f.pieces {
		pieces[i] = Piece{Start: pc.Start, End: pc.End, P: pc.P.Scale(c)}
	}
	return Func{pieces: pieces}
}

// AddPoly returns f + p (p applied on all of f's domain).
func (f Func) AddPoly(p poly.Poly) Func {
	pieces := make([]Piece, len(f.pieces))
	for i, pc := range f.pieces {
		pieces[i] = Piece{Start: pc.Start, End: pc.End, P: pc.P.Add(p)}
	}
	return Func{pieces: pieces}
}

// Restrict returns f limited to [lo, hi] (intersected with f's domain).
func (f Func) Restrict(lo, hi float64) (Func, error) {
	flo, fhi := f.Domain()
	lo, hi = math.Max(lo, flo), math.Min(hi, fhi)
	if !(lo < hi) {
		return Func{}, ErrEmptyDomain
	}
	var pieces []Piece
	for _, pc := range f.pieces {
		s, e := math.Max(pc.Start, lo), math.Min(pc.End, hi)
		if s < e {
			pieces = append(pieces, Piece{Start: s, End: e, P: pc.P})
		}
	}
	return Func{pieces: pieces}, nil
}

// FirstZeroAfter returns the earliest time s with s > t (strictly, by
// more than poly.RootTol) at which f(s) = 0, within f's domain.
//
// coincide reports that instead of an isolated zero, f is identically zero
// on a whole piece; s is then the start of that coincidence (or t itself
// when t already lies inside a zero piece).
func (f Func) FirstZeroAfter(t float64) (s float64, coincide, ok bool) {
	for _, pc := range f.pieces {
		if pc.End <= t+poly.RootTol {
			continue
		}
		lo := math.Max(pc.Start, t)
		if pc.P.IsZero() {
			return lo, true, true
		}
		// The search must be bounded below by the piece's own start:
		// a later piece's polynomial can have extrapolated roots before
		// the piece's domain, which are not zeros of f. A zero exactly
		// at pc.Start is found by the previous piece's closed-interval
		// search (continuity), so the strictly-after semantics here
		// lose nothing.
		if r, found := pc.P.FirstRootAfter(lo, pc.End); found {
			return r, false, true
		}
	}
	return 0, false, false
}

// String renders each piece as "[a,b] p(t)" joined by " | ".
func (f Func) String() string {
	if len(f.pieces) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	for i, pc := range f.pieces {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "[%g,%g] %s", pc.Start, pc.End, pc.P)
	}
	return b.String()
}

// Discontinuities returns the interior piece boundaries at which f jumps
// (left and right limits differ materially), within (lo, hi). Continuous
// g-distances return none; the paper's relaxation to finitely many
// continuous pieces (Section 5, first closing remark) produces these
// instants, at which a sweep must re-certify the curve's position.
func (f Func) Discontinuities(lo, hi float64) []float64 {
	var out []float64
	for i := 1; i < len(f.pieces); i++ {
		b := f.pieces[i].Start
		if b <= lo || b >= hi {
			continue
		}
		left := f.pieces[i-1].P.Eval(b)
		right := f.pieces[i].P.Eval(b)
		scale := math.Max(1, math.Max(math.Abs(left), math.Abs(right)))
		if math.Abs(left-right) > 1e-9*scale {
			out = append(out, b)
		}
	}
	return out
}
