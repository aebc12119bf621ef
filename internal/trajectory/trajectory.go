// Package trajectory implements the paper's moving-object model
// (Section 2): a trajectory is a continuous piecewise-linear function from
// time to R^n, represented — as in the paper — by a disjunction of
// linear-constraint conjunctions, one per linear piece.
//
// Trajectories are immutable values: the update operations (truncation for
// terminate, appending a motion piece for chdir) return new trajectories,
// which is what lets the MOD hand out consistent snapshots while updates
// stream in.
package trajectory

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/piecewise"
	"repro/internal/poly"
)

// Piece is one linear leg of motion: x(t) = A*(t-Start) + B for
// t in [Start, End]. Anchoring at Start (rather than the paper's global
// x = At + B form) keeps evaluation well-conditioned for large times; the
// constraint renderer converts back to the paper's form.
type Piece struct {
	Start, End float64
	A, B       geom.Vec // velocity and position-at-Start
}

// At evaluates the piece at time t (no domain check).
func (p Piece) At(t float64) geom.Vec { return p.B.AddScaled(t-p.Start, p.A) }

// GlobalOffset returns B' such that x(t) = A*t + B', the paper's
// representation of the piece.
func (p Piece) GlobalOffset() geom.Vec { return p.B.AddScaled(-p.Start, p.A) }

// Trajectory is a continuous piecewise-linear function from R to R^n.
// The zero value is an undefined trajectory.
type Trajectory struct {
	pieces []Piece
}

// Errors returned by trajectory constructors and update operations.
var (
	ErrUndefined   = errors.New("trajectory: undefined at requested time")
	ErrChronology  = errors.New("trajectory: update time not after current definition")
	ErrTerminated  = errors.New("trajectory: already terminated")
	ErrEmpty       = errors.New("trajectory: no pieces")
	ErrDiscontinue = errors.New("trajectory: pieces not continuous")
)

// Linear returns the trajectory x = A*(t-start) + B defined on
// [start, +inf), the result of a `new` update in the paper's model.
func Linear(start float64, a, b geom.Vec) Trajectory {
	if len(a) != len(b) {
		panic("trajectory: velocity/position dimension mismatch")
	}
	return Trajectory{pieces: []Piece{{Start: start, End: math.Inf(1), A: a.Clone(), B: b.Clone()}}}
}

// Stationary returns a trajectory that sits at point b from start onward.
// The paper admits stationary points as moving objects with constant
// trajectories.
func Stationary(start float64, b geom.Vec) Trajectory {
	return Linear(start, geom.New(len(b)), b)
}

// FromPieces validates continuity and builds a trajectory. Pieces must be
// contiguous in time and continuous in space (each piece starts where the
// previous one ends).
func FromPieces(pieces ...Piece) (Trajectory, error) {
	if len(pieces) == 0 {
		return Trajectory{}, ErrEmpty
	}
	dim := pieces[0].A.Dim()
	for i, pc := range pieces {
		if pc.A.Dim() != dim || pc.B.Dim() != dim {
			return Trajectory{}, fmt.Errorf("trajectory: piece %d dimension mismatch", i)
		}
		if !(pc.Start < pc.End) {
			return Trajectory{}, fmt.Errorf("trajectory: piece %d has empty interval [%g,%g]", i, pc.Start, pc.End)
		}
		if i > 0 {
			prev := pieces[i-1]
			if prev.End != pc.Start { //modlint:allow floatcmp -- breakpoints are propagated bit-identically; positions get the epsilon check below
				return Trajectory{}, fmt.Errorf("trajectory: time gap between pieces %d and %d", i-1, i)
			}
			if !prev.At(prev.End).ApproxEqual(pc.B, 1e-9) {
				return Trajectory{}, fmt.Errorf("%w: piece %d jumps from %v to %v at t=%g",
					ErrDiscontinue, i, prev.At(prev.End), pc.B, pc.Start)
			}
		}
	}
	cp := make([]Piece, len(pieces))
	copy(cp, pieces)
	return Trajectory{pieces: cp}, nil
}

// MustFromPieces is FromPieces for statically-valid inputs.
func MustFromPieces(pieces ...Piece) Trajectory {
	tr, err := FromPieces(pieces...)
	if err != nil {
		panic(err)
	}
	return tr
}

// IsDefined reports whether the trajectory has any pieces.
func (tr Trajectory) IsDefined() bool { return len(tr.pieces) > 0 }

// Dim returns the spatial dimension, or 0 for an undefined trajectory.
func (tr Trajectory) Dim() int {
	if len(tr.pieces) == 0 {
		return 0
	}
	return tr.pieces[0].A.Dim()
}

// Start returns the first time at which the trajectory is defined.
func (tr Trajectory) Start() float64 {
	if len(tr.pieces) == 0 {
		return math.NaN()
	}
	return tr.pieces[0].Start
}

// End returns the last time at which the trajectory is defined (may be
// +Inf for an unterminated object).
func (tr Trajectory) End() float64 {
	if len(tr.pieces) == 0 {
		return math.NaN()
	}
	return tr.pieces[len(tr.pieces)-1].End
}

// DefinedAt reports whether t lies within the trajectory's time domain.
func (tr Trajectory) DefinedAt(t float64) bool {
	return len(tr.pieces) > 0 && t >= tr.Start() && t <= tr.End()
}

// pieceIndexAt returns the piece index containing t, or -1. At a shared
// boundary the later piece is preferred (matching the sweep's "just
// after" semantics).
func (tr Trajectory) pieceIndexAt(t float64) int {
	n := len(tr.pieces)
	if n == 0 || t < tr.pieces[0].Start || t > tr.pieces[n-1].End {
		return -1
	}
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.pieces[mid].End < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo+1 < n && t >= tr.pieces[lo].End {
		lo++
	}
	return lo
}

// At returns the location at time t. The error is ErrUndefined outside
// the time domain.
func (tr Trajectory) At(t float64) (geom.Vec, error) {
	i := tr.pieceIndexAt(t)
	if i < 0 {
		return nil, fmt.Errorf("%w: t=%g", ErrUndefined, t)
	}
	return tr.pieces[i].At(t), nil
}

// MustAt is At for callers that have already checked DefinedAt.
func (tr Trajectory) MustAt(t float64) geom.Vec {
	v, err := tr.At(t)
	if err != nil {
		panic(err)
	}
	return v
}

// VelocityAt returns the velocity vector at time t (the paper's `vel`
// function). At a turn instant the velocity of the piece beginning at t is
// returned (right derivative).
func (tr Trajectory) VelocityAt(t float64) (geom.Vec, error) {
	i := tr.pieceIndexAt(t)
	if i < 0 {
		return nil, fmt.Errorf("%w: t=%g", ErrUndefined, t)
	}
	return tr.pieces[i].A.Clone(), nil
}

// Turns returns the time instants at which the derivative is
// discontinuous (Definition 1's turns). Piece boundaries where the
// velocity does not change are not turns.
func (tr Trajectory) Turns() []float64 {
	var ts []float64
	for i := 1; i < len(tr.pieces); i++ {
		if !tr.pieces[i-1].A.Equal(tr.pieces[i].A) {
			ts = append(ts, tr.pieces[i].Start)
		}
	}
	return ts
}

// Breaks returns all interior piece boundaries (turns or not).
func (tr Trajectory) Breaks() []float64 {
	var ts []float64
	for i := 1; i < len(tr.pieces); i++ {
		ts = append(ts, tr.pieces[i].Start)
	}
	return ts
}

// Pieces returns a copy of the linear pieces.
func (tr Trajectory) Pieces() []Piece {
	out := make([]Piece, len(tr.pieces))
	copy(out, tr.pieces)
	return out
}

// NumPieces returns the number of linear pieces.
func (tr Trajectory) NumPieces() int { return len(tr.pieces) }

// PieceAt returns piece i without copying the piece list — the accessor
// for per-object scans that must not allocate. The piece's vectors are
// shared with the trajectory and must not be modified.
func (tr Trajectory) PieceAt(i int) Piece { return tr.pieces[i] }

// LastPiece returns the final motion piece.
func (tr Trajectory) LastPiece() (Piece, error) {
	if len(tr.pieces) == 0 {
		return Piece{}, ErrEmpty
	}
	return tr.pieces[len(tr.pieces)-1], nil
}

// IsTerminated reports whether the trajectory's domain is bounded above.
func (tr Trajectory) IsTerminated() bool {
	return len(tr.pieces) > 0 && !math.IsInf(tr.End(), 1)
}

// ChDir returns the trajectory updated by the paper's chdir(o, tau, A):
// identical up to tau, then moving with velocity a from the position at
// tau. Requires the trajectory to be defined at tau and tau to lie before
// the current end (or at/after the last turn; any tau within the domain is
// legal per Definition 3).
func (tr Trajectory) ChDir(tau float64, a geom.Vec) (Trajectory, error) {
	if !tr.DefinedAt(tau) {
		return Trajectory{}, fmt.Errorf("%w: chdir at t=%g", ErrUndefined, tau)
	}
	if a.Dim() != tr.Dim() {
		return Trajectory{}, fmt.Errorf("trajectory: chdir dimension %d != %d", a.Dim(), tr.Dim())
	}
	pos := tr.MustAt(tau)
	pieces := append(tr.upTo(tau, 1), Piece{Start: tau, End: math.Inf(1), A: a.Clone(), B: pos})
	return Trajectory{pieces: pieces}, nil
}

// upTo returns a fresh copy of the trajectory's pieces restricted to
// t <= tau: the pieces that end by tau, then the piece holding tau cut
// short there. The copy is one allocation, sized from the index of the
// piece holding tau, with room for extra pieces the caller appends.
func (tr Trajectory) upTo(tau float64, extra int) []Piece {
	k := sort.Search(len(tr.pieces), func(i int) bool { return tr.pieces[i].End > tau })
	pieces := append(make([]Piece, 0, k+1+extra), tr.pieces[:k]...)
	if k < len(tr.pieces) && tr.pieces[k].Start < tau {
		pc := tr.pieces[k]
		pieces = append(pieces, Piece{Start: pc.Start, End: tau, A: pc.A, B: pc.B})
	}
	return pieces
}

// Terminate returns the trajectory truncated at tau (the paper's
// terminate(o, tau)): T(o) AND t <= tau.
func (tr Trajectory) Terminate(tau float64) (Trajectory, error) {
	if !tr.DefinedAt(tau) {
		return Trajectory{}, fmt.Errorf("%w: terminate at t=%g", ErrUndefined, tau)
	}
	if tau <= tr.Start() {
		return Trajectory{}, fmt.Errorf("trajectory: terminate at start t=%g leaves empty domain", tau)
	}
	return Trajectory{pieces: tr.upTo(tau, 0)}, nil
}

// Coordinate returns coordinate i of the trajectory, as a
// piecewise-linear function of time, on the pieces that matter to the
// window [lo, hi] — the bridge from the spatial model into the
// piecewise-polynomial curve algebra, at a cost that follows the window
// and not the trajectory's length. The pieces are the ones meeting
// [lo, hi] (found by binary search) and the one after them, each with
// its own unclipped Start and End: a curve built from these and then
// clipped to the window has the breaks and coefficients, bit for bit, of
// the one built from every piece. The piece after is there because the
// curve algebra looks a piece up at the midpoint of two breaks and, when
// that midpoint rounds onto the later break, takes the piece that starts
// there. The window must meet the trajectory's domain.
func (tr Trajectory) Coordinate(i int, lo, hi float64) (piecewise.Func, error) {
	if len(tr.pieces) == 0 {
		return piecewise.Func{}, ErrEmpty
	}
	if i < 0 || i >= tr.Dim() {
		return piecewise.Func{}, fmt.Errorf("trajectory: coordinate %d out of range (dim %d)", i, tr.Dim())
	}
	first := sort.Search(len(tr.pieces), func(k int) bool { return tr.pieces[k].End >= lo })
	end := sort.Search(len(tr.pieces), func(k int) bool { return tr.pieces[k].Start > hi })
	if first >= end {
		return piecewise.Func{}, fmt.Errorf("%w: window [%g,%g]", ErrUndefined, lo, hi)
	}
	if end < len(tr.pieces) {
		end++
	}
	pieces := make([]piecewise.Piece, end-first)
	for k, pc := range tr.pieces[first:end] {
		// x_i(t) = A_i*(t - Start) + B_i = A_i*t + (B_i - A_i*Start)
		b := pc.B[i]
		//modlint:allow floatcmp -- zero velocity is exact (geom.New zeros); 0*Start is NaN for stationary pieces anchored at -Inf
		if pc.A[i] != 0 {
			b -= pc.A[i] * pc.Start
		}
		pieces[k] = piecewise.Piece{
			Start: pc.Start,
			End:   pc.End,
			P:     poly.Linear(pc.A[i], b),
		}
	}
	return piecewise.New(pieces...)
}

// Equal reports exact structural equality.
func (tr Trajectory) Equal(o Trajectory) bool {
	if len(tr.pieces) != len(o.pieces) {
		return false
	}
	for i := range tr.pieces {
		a, b := tr.pieces[i], o.pieces[i]
		if a.Start != b.Start || a.End != b.End || !a.A.Equal(b.A) || !a.B.Equal(b.B) {
			return false
		}
	}
	return true
}

// String renders the trajectory in the paper's constraint syntax, e.g.
//
//	x = (2, -1, 0)t + (-40, 23, 30) ∧ 0 <= t <= 21
//	∨ x = (0, -1, -5)t + (2, 23, 135) ∧ 21 <= t <= 22
//	∨ x = (0.5, 0, -1)t + (-9, 1, 47) ∧ 22 <= t
func (tr Trajectory) String() string {
	if len(tr.pieces) == 0 {
		return "<undefined>"
	}
	var b strings.Builder
	for i, pc := range tr.pieces {
		if i > 0 {
			b.WriteString(" ∨ ")
		}
		fmt.Fprintf(&b, "x = %st + %s ∧ ", pc.A, pc.GlobalOffset())
		if math.IsInf(pc.End, 1) {
			fmt.Fprintf(&b, "%g <= t", pc.Start)
		} else {
			fmt.Fprintf(&b, "%g <= t <= %g", pc.Start, pc.End)
		}
	}
	return b.String()
}
