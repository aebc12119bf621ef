// Package gdist implements the paper's generalized distances (Definition
// 6): mappings from trajectories to continuous functions from time to R.
// A g-distance is the single arithmetic primitive of the FO(f) query
// language; everything the sweep orders and intersects is a g-distance
// curve.
//
// The package provides the paper's worked examples — squared Euclidean
// distance to a query trajectory (Example 8, quadratic and therefore a
// "polynomial" g-distance), and interception/fastest-arrival time
// (Examples 7 and 9) — plus axis distances and speed. Non-polynomial
// distances are admitted through a bounded-error piecewise-quadratic fit
// (see DESIGN.md, substitution 2).
package gdist

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/piecewise"
	"repro/internal/poly"
	"repro/internal/trajectory"
)

// GDistance maps a trajectory to its curve over a bounded or unbounded
// window [from, to]. Implementations must produce continuous
// piecewise-polynomial curves; the window allows implementations backed by
// numeric fits to bound their work.
type GDistance interface {
	// Name identifies the distance in diagnostics and experiment tables.
	Name() string
	// Curve returns f(tr) restricted to [from, to] intersected with the
	// trajectory's own domain. to may be +Inf for distances whose curve
	// construction is closed-form.
	Curve(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error)
}

// ErrWindow is returned when the requested window does not intersect the
// trajectory's domain.
var ErrWindow = errors.New("gdist: window outside trajectory domain")

// window clips [from,to] to the trajectory domain.
func window(tr trajectory.Trajectory, from, to float64) (float64, float64, error) {
	if !tr.IsDefined() {
		return 0, 0, errors.New("gdist: undefined trajectory")
	}
	lo := math.Max(from, tr.Start())
	hi := math.Min(to, tr.End())
	if !(lo < hi) {
		return 0, 0, fmt.Errorf("%w: [%g,%g] vs [%g,%g]", ErrWindow, from, to, tr.Start(), tr.End())
	}
	return lo, hi, nil
}

// axisSq builds (tr.i(t) - q.i(t))^2 from the pieces of tr and q that
// matter to [lo, hi] (trajectory.Coordinate). Its domain covers the
// window and is not clipped to it: the caller's Add or Restrict does
// that, and yields what the same steps yield on whole trajectories.
func axisSq(tr, q trajectory.Trajectory, i int, lo, hi float64) (piecewise.Func, error) {
	ci, err := tr.Coordinate(i, lo, hi)
	if err != nil {
		return piecewise.Func{}, err
	}
	qi, err := q.Coordinate(i, lo, hi)
	if err != nil {
		return piecewise.Func{}, err
	}
	di, err := ci.Sub(qi)
	if err != nil {
		return piecewise.Func{}, err
	}
	return di.Mul(di)
}

// firstPieceTo returns the index of the first piece of tr that ends at
// or after t — where a walk over the pieces meeting a window that
// starts at t begins. It is tr.NumPieces() when every piece ends before
// t.
func firstPieceTo(tr trajectory.Trajectory, t float64) int {
	return sort.Search(tr.NumPieces(), func(i int) bool { return tr.PieceAt(i).End >= t })
}

// relativeSq builds |tr(t) - q(t)|^2 as a piecewise quadratic on the
// overlap of domains clipped to [from, to].
func relativeSq(tr, q trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	if tr.Dim() != q.Dim() {
		return piecewise.Func{}, fmt.Errorf("gdist: dimension %d vs query %d", tr.Dim(), q.Dim())
	}
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	if lo, hi, err = window(q, lo, hi); err != nil {
		return piecewise.Func{}, err
	}
	return sumAxes(tr.Dim(), lo, hi, func(i int) (piecewise.Func, error) { return axisSq(tr, q, i, lo, hi) })
}

// sumAxes adds sq(0) … sq(dim-1) on [lo, hi]: the first square clipped
// to the window, the others added to it. Each square's domain covers
// the window, so this yields the pieces and bits that adding them all
// to Constant(0, lo, hi) does, without building that seed; the one
// exception, a one-ulp stretch at lo in one dimension, is in DESIGN.md
// ("Why PointSq needs no query trajectory").
func sumAxes(dim int, lo, hi float64, sq func(i int) (piecewise.Func, error)) (piecewise.Func, error) {
	if dim == 0 {
		return piecewise.Constant(0, lo, hi), nil
	}
	var sum piecewise.Func
	for i := 0; i < dim; i++ {
		si, err := sq(i)
		if err != nil {
			return piecewise.Func{}, err
		}
		if i == 0 {
			sum, err = si.Restrict(lo, hi)
		} else {
			sum, err = sum.Add(si)
		}
		if err != nil {
			return piecewise.Func{}, err
		}
	}
	return sum, nil
}

// EuclideanSq is Example 8's g-distance: d_o(t) = len(x_o - x_gamma)^2,
// the squared Euclidean distance to a query trajectory. It is piecewise
// quadratic, hence a polynomial g-distance.
type EuclideanSq struct {
	Query trajectory.Trajectory
}

// Name implements GDistance.
func (e EuclideanSq) Name() string { return "euclidean-sq" }

// Curve implements GDistance.
func (e EuclideanSq) Curve(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	return relativeSq(tr, e.Query, from, to)
}

// PointSq is squared distance to a fixed point: the special case of
// EuclideanSq with a stationary query object.
type PointSq struct {
	Point geom.Vec
}

// Name implements GDistance.
func (p PointSq) Name() string { return "point-sq" }

// Curve implements GDistance. Each axis is the object's coordinate
// shifted by -p[i] on every piece, then squared: the bits of subtracting
// a query at rest at p since -Inf, since c + (-p) is c - p in IEEE
// arithmetic and trimming flushes the signed zeros either leaves.
func (p PointSq) Curve(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	if tr.Dim() != len(p.Point) {
		return piecewise.Func{}, fmt.Errorf("gdist: dimension %d vs query %d", tr.Dim(), len(p.Point))
	}
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	return sumAxes(tr.Dim(), lo, hi, func(i int) (piecewise.Func, error) {
		ci, err := tr.Coordinate(i, lo, hi)
		if err != nil {
			return piecewise.Func{}, err
		}
		di := ci.AddPoly(poly.Constant(-p.Point[i]))
		return di.Mul(di)
	})
}

// AxisSq is the squared distance along one coordinate axis to the query
// trajectory: (x_o.i - x_gamma.i)^2. Useful for corridor/altitude-style
// queries ("within 500ft vertically").
type AxisSq struct {
	Query trajectory.Trajectory
	Axis  int
}

// Name implements GDistance.
func (a AxisSq) Name() string { return fmt.Sprintf("axis%d-sq", a.Axis) }

// Curve implements GDistance.
func (a AxisSq) Curve(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	if a.Axis < 0 || a.Axis >= tr.Dim() {
		return piecewise.Func{}, fmt.Errorf("gdist: axis %d out of range (dim %d)", a.Axis, tr.Dim())
	}
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	lo, hi, err = window(a.Query, lo, hi)
	if err != nil {
		return piecewise.Func{}, err
	}
	sq, err := axisSq(tr, a.Query, a.Axis, lo, hi)
	if err != nil {
		return piecewise.Func{}, err
	}
	return sq.Restrict(lo, hi)
}

// Coordinate exposes one coordinate of the trajectory itself as a
// g-distance ("objects ordered by altitude"). Piecewise linear.
type Coordinate struct {
	Axis int
}

// Name implements GDistance.
func (c Coordinate) Name() string { return fmt.Sprintf("coord%d", c.Axis) }

// Curve implements GDistance.
func (c Coordinate) Curve(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	f, err := tr.Coordinate(c.Axis, lo, hi)
	if err != nil {
		return piecewise.Func{}, err
	}
	return f.Restrict(lo, hi)
}

// Const maps every trajectory to the same constant curve. It models the
// real-number constants of FO(f) atoms (e.g. the 50 km in "within 50 km")
// as stationary curves in the sweep order.
type Const struct {
	C float64
}

// Name implements GDistance.
func (c Const) Name() string { return fmt.Sprintf("const(%g)", c.C) }

// Curve implements GDistance.
func (c Const) Curve(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	return piecewise.Constant(c.C, lo, hi), nil
}

// Weighted scales an inner g-distance by a per-call constant; composing
// distances stays within polynomial g-distances.
type Weighted struct {
	Inner  GDistance
	Weight float64
}

// Name implements GDistance.
func (w Weighted) Name() string { return fmt.Sprintf("%g*%s", w.Weight, w.Inner.Name()) }

// Curve implements GDistance.
func (w Weighted) Curve(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	f, err := w.Inner.Curve(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	return f.Scale(w.Weight), nil
}

// Sum adds two g-distances pointwise.
type Sum struct {
	A, B GDistance
}

// Name implements GDistance.
func (s Sum) Name() string { return fmt.Sprintf("%s+%s", s.A.Name(), s.B.Name()) }

// Curve implements GDistance.
func (s Sum) Curve(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	fa, err := s.A.Curve(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	fb, err := s.B.Curve(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	return fa.Add(fb)
}

// SpeedSq maps each object to its squared speed |vel(t)|^2 — "order the
// fleet by speed". The curve is piecewise constant and jumps at turns:
// a g-distance under the paper's relaxed definition (finitely many
// continuous pieces, Section 5's first closing remark). The sweep
// re-certifies the object's position at each jump.
type SpeedSq struct{}

// Name implements GDistance.
func (SpeedSq) Name() string { return "speed-sq" }

// Curve implements GDistance.
func (SpeedSq) Curve(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	var pieces []piecewise.Piece
	for i := firstPieceTo(tr, lo); i < tr.NumPieces(); i++ {
		pc := tr.PieceAt(i)
		if pc.Start >= hi {
			break
		}
		a := math.Max(pc.Start, lo)
		b := math.Min(pc.End, hi)
		if !(a < b) {
			continue
		}
		pieces = append(pieces, piecewise.Piece{Start: a, End: b, P: poly.Constant(pc.A.Len2())})
	}
	return piecewise.New(pieces...)
}
