package query

// Uncertainty-aware queries: the query layer's entry points into the
// bead model (internal/bead). An exact trajectory in the MOD is the
// record of what the database was TOLD; the bead layer treats its
// knots as samples and asks what the object could have done between
// them, bounded by its declared maximum speed (mod.KindBound). These
// wrappers adapt a database view to bead tracks and phrase the two
// uncertainty queries in MOD vocabulary.

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/bead"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// UncertainSource is any point-in-time view that can hand out an
// object's recorded trajectory together with its declared speed bound:
// a *mod.DB or a *mod.Snap.
type UncertainSource interface {
	Dim() int
	Objects() []mod.OID
	Traj(o mod.OID) (trajectory.Trajectory, error)
	SpeedBound(o mod.OID) (float64, bool)
}

// ErrNoSpeedBound is the sentinel behind NoSpeedBoundError; match it
// with errors.Is.
var ErrNoSpeedBound = errors.New("query: no declared speed bound and no default was given")

// NoSpeedBoundError reports every object an uncertainty query could not
// reason about: no declared speed bound (mod.KindBound) and no
// non-negative default supplied. Queries pre-validate the whole object
// set in one cheap pass, so the error names ALL offending objects — the
// caller can declare bounds for the full list instead of discovering
// them one failed query at a time.
type NoSpeedBoundError struct {
	Objects []mod.OID
}

func (e *NoSpeedBoundError) Error() string {
	names := make([]string, len(e.Objects))
	for i, o := range e.Objects {
		names[i] = fmt.Sprintf("%d", o)
	}
	return fmt.Sprintf("query: %d object(s) have no declared speed bound and no default was given: %s",
		len(e.Objects), strings.Join(names, ", "))
}

// Unwrap lets errors.Is(err, ErrNoSpeedBound) match.
func (e *NoSpeedBoundError) Unwrap() error { return ErrNoSpeedBound }

// needsDeclarations reports whether defaultVmax fails to cover
// undeclared objects (negative = declarations required, NaN = nonsense).
func needsDeclarations(defaultVmax float64) bool {
	return defaultVmax < 0 || math.IsNaN(defaultVmax)
}

// validateSpeedBounds checks in one pass that every object of the view
// has a usable speed bound, returning a NoSpeedBoundError naming every
// object that lacks one. With a usable default nothing can be missing
// and the pass is skipped.
func validateSpeedBounds(src UncertainSource, defaultVmax float64) error {
	if !needsDeclarations(defaultVmax) {
		return nil
	}
	var missing []mod.OID
	for _, o := range src.Objects() {
		if _, ok := src.SpeedBound(o); !ok {
			missing = append(missing, o)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	return &NoSpeedBoundError{Objects: missing}
}

// TrackOf builds the bead track of one object. defaultVmax is used for
// objects without a declared bound; pass a negative value to require a
// declaration (objects without one then fail, by name, rather than
// silently getting infinite or magic uncertainty).
func TrackOf(src UncertainSource, o mod.OID, defaultVmax float64) (*bead.Track, error) {
	tr, err := src.Traj(o)
	if err != nil {
		return nil, err
	}
	vmax, ok := src.SpeedBound(o)
	if !ok {
		if needsDeclarations(defaultVmax) {
			return nil, &NoSpeedBoundError{Objects: []mod.OID{o}}
		}
		vmax = defaultVmax
	}
	return bead.FromTrajectory(tr, vmax)
}

// Alibi decides whether objects o1 and o2 could have met during
// [lo, hi], given their recorded motion and speed bounds. The answer is
// exact (closed-form bead intersection, not sampling): Possible=false
// is a proof of alibi.
func Alibi(src UncertainSource, o1, o2 mod.OID, lo, hi, defaultVmax float64) (bead.Result, error) {
	if o1 == o2 {
		return bead.Result{}, fmt.Errorf("query: alibi of object %d against itself", o1)
	}
	t1, err := TrackOf(src, o1, defaultVmax)
	if err != nil {
		return bead.Result{}, err
	}
	t2, err := TrackOf(src, o2, defaultVmax)
	if err != nil {
		return bead.Result{}, err
	}
	return bead.Alibi(t1, t2, lo, hi)
}

// PossiblyWithin answers "which objects could have been within dist of
// the point q at some instant in [lo, hi]?" across every object of the
// view, as an AnswerSet of per-object time intervals. It is the
// uncertainty-aware counterpart of the exact threshold query: the exact
// Within asks about recorded positions, this asks about every movement
// consistent with the record and the speed bounds.
func PossiblyWithin(src UncertainSource, q geom.Vec, dist, lo, hi, defaultVmax float64) (*AnswerSet, error) {
	within, err := validateWithin(src, q, dist, lo, hi, defaultVmax)
	if err != nil {
		return nil, err
	}
	ans := newFinishedAnswerSet(0, hi)
	var ivs []bead.Interval // one object's at a time
	for _, o := range src.Objects() {
		tr, err := TrackOf(src, o, defaultVmax)
		if err != nil {
			return nil, err
		}
		ivs, _ = within(tr, ivs[:0])
		ans.appendSorted(o, ivs)
	}
	return ans, nil
}

// validateWithin is the one place a possibly-within question is
// checked, before any object is looked at: the scan and the BeadIndex
// both start here, so whether a question is refused — and with which
// error — never depends on what the database holds near the query
// point. The checks run in a fixed order: point dimension, speed
// bounds, then the bead layer's own (finite point, distance, window).
func validateWithin(src UncertainSource, q geom.Vec, dist, lo, hi, defaultVmax float64) (func(*bead.Track, []bead.Interval) ([]bead.Interval, bead.PWStats), error) {
	if q.Dim() != src.Dim() {
		return nil, fmt.Errorf("query: point dim %d, database dim %d", q.Dim(), src.Dim())
	}
	if err := validateSpeedBounds(src, defaultVmax); err != nil {
		return nil, err
	}
	return bead.Within(src.Dim(), q, dist, lo, hi)
}
