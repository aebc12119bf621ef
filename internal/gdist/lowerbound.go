package gdist

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// LowerBounder is a GDistance that can bound a trajectory's curve from
// below over a window straight from the trajectory's linear pieces —
// tens of nanoseconds per piece where Curve costs microseconds. It is
// the reach test of a bounded sweep (query.Reaches): a curve whose
// bound stays above a threshold cannot matter to an answer that only
// reads the order below it.
//
// The bound is the closed form of the true minimum, so it differs from
// the minimum of the built curve only by float rounding; callers
// compare it against a threshold inflated by a margin that dominates
// that. LowerBound fails exactly when Curve would: the window misses
// the trajectory's (or the query's) lifetime.
type LowerBounder interface {
	GDistance
	LowerBound(tr trajectory.Trajectory, from, to float64) (float64, error)
}

// LowerBound implements LowerBounder.
func (e EuclideanSq) LowerBound(tr trajectory.Trajectory, from, to float64) (float64, error) {
	if tr.Dim() != e.Query.Dim() {
		return 0, fmt.Errorf("gdist: dimension %d vs query %d", tr.Dim(), e.Query.Dim())
	}
	return relativeMin(tr, e.Query, nil, from, to)
}

// LowerBound implements LowerBounder.
func (p PointSq) LowerBound(tr trajectory.Trajectory, from, to float64) (float64, error) {
	if tr.Dim() != len(p.Point) {
		return 0, fmt.Errorf("gdist: dimension %d vs query %d", tr.Dim(), len(p.Point))
	}
	return relativeMin(tr, trajectory.Trajectory{}, p.Point, from, to)
}

// relativeMin is the minimum of |tr(t) - q(t)|^2 over [from, to], where
// an undefined q stands for the point at rest at p. It walks the
// stretches on which both motions are linear — there the squared
// distance is one quadratic in t, least at its clamped vertex.
func relativeMin(tr, q trajectory.Trajectory, p geom.Vec, from, to float64) (float64, error) {
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return 0, err
	}
	rest := trajectory.Piece{Start: math.Inf(-1), End: math.Inf(1), B: p}
	nq, j := 1, 0
	if q.IsDefined() {
		if lo, hi, err = window(q, lo, hi); err != nil {
			return 0, err
		}
		nq, j = q.NumPieces(), firstPieceTo(q, lo)
	}
	least := math.Inf(1)
	// Only stretches that meet [lo, hi] count; the pieces before the
	// first one reaching lo and after the first one starting past hi
	// contribute none.
	for i := firstPieceTo(tr, lo); i < tr.NumPieces() && j < nq; {
		pc, qc := tr.PieceAt(i), rest
		if q.IsDefined() {
			qc = q.PieceAt(j)
		}
		start := math.Max(pc.Start, qc.Start)
		if start > hi {
			break
		}
		a, b := math.Max(lo, start), math.Min(hi, math.Min(pc.End, qc.End))
		if a <= b {
			// d(s) = |D + s*V|^2 on s in [0, b-a], with D the relative
			// position at a and V the relative velocity.
			var dd, dv, vv float64
			for k := range pc.B {
				d := pc.B[k] + (a-pc.Start)*pc.A[k] - qc.B[k]
				v := pc.A[k]
				//modlint:allow floatcmp -- a component at rest since -Inf: 0*Inf would poison the sum
				if qc.A != nil && qc.A[k] != 0 {
					d -= (a - qc.Start) * qc.A[k]
					v -= qc.A[k]
				}
				dd += d * d
				dv += d * v
				vv += v * v
			}
			s := 0.0
			if vv > 0 {
				s = math.Min(math.Max(-dv/vv, 0), b-a)
			}
			least = math.Min(least, dd+s*(2*dv+s*vv))
		}
		// Advance whichever piece ends first (both on a shared end).
		if pc.End <= qc.End {
			i++
		}
		if qc.End <= pc.End {
			j++
		}
	}
	return least, nil
}
