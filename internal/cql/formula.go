package cql

// A composable temporal-formula layer for the Section 3 constraint
// language. A TimeFormula denotes, for each object y of a MOD, the set of
// time instants at which the formula holds — computed exactly, as a
// SpanSet, by the quantifier-elimination primitives of this package
// (linear 1-D solving for region atoms, univariate polynomial sign
// analysis for distance atoms). Propositional connectives become span-set
// algebra; the paper's temporal quantifiers over a window become
// emptiness/coverage tests on the resulting set.
//
// This is the baseline language's general form: expressive enough for
// Examples 3 and 4 (and beyond: boolean combinations of region and
// distance constraints), evaluated from scratch per object — precisely
// the recompute-everything cost profile the plane sweep is measured
// against.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/poly"
	"repro/internal/trajectory"
)

// TimeFormula denotes a time set per object.
type TimeFormula interface {
	// Holds computes the time spans within [lo, hi] at which the
	// formula is true of object y.
	Holds(ctx *EvalContext, y mod.OID, lo, hi float64) (SpanSet, error)
	String() string
}

// EvalContext carries the database view shared by all formula nodes.
type EvalContext struct {
	Trajs map[mod.OID]trajectory.Trajectory
}

// NewContext snapshots the database for evaluation.
func NewContext(db *mod.DB) *EvalContext {
	return &EvalContext{Trajs: db.Trajectories()}
}

func (c *EvalContext) traj(o mod.OID) (trajectory.Trajectory, error) {
	tr, ok := c.Trajs[o]
	if !ok || !tr.IsDefined() {
		return trajectory.Trajectory{}, fmt.Errorf("cql: no trajectory for %s", o)
	}
	return tr, nil
}

// InRegion holds while the object is inside the region.
type InRegion struct {
	Region Region
}

// String implements TimeFormula.
func (f InRegion) String() string { return "inRegion(y)" }

// Holds implements TimeFormula.
func (f InRegion) Holds(ctx *EvalContext, y mod.OID, lo, hi float64) (SpanSet, error) {
	tr, err := ctx.traj(y)
	if err != nil {
		return SpanSet{}, err
	}
	clo, chi, ok := clipLife(tr, lo, hi)
	if !ok {
		return SpanSet{}, nil
	}
	return f.Region.TimesInside(tr, clo, chi)
}

// WithinDist holds while the squared Euclidean distance between the
// object and the target trajectory is at most C2.
type WithinDist struct {
	Target trajectory.Trajectory
	C2     float64
}

// String implements TimeFormula.
func (f WithinDist) String() string { return fmt.Sprintf("dist2(y,target) <= %g", f.C2) }

// Holds implements TimeFormula.
func (f WithinDist) Holds(ctx *EvalContext, y mod.OID, lo, hi float64) (SpanSet, error) {
	tr, err := ctx.traj(y)
	if err != nil {
		return SpanSet{}, err
	}
	d := gdist.EuclideanSq{Query: f.Target}
	curve, err := d.Curve(tr, lo, hi)
	if err != nil {
		// Lifetimes disjoint from the window: never within.
		return SpanSet{}, nil
	}
	shifted := curve.AddPoly(poly.Constant(-f.C2))
	clo, chi := curve.Domain()
	return SolvePiecewiseLE(shifted, clo, chi)
}

// CloserThan holds while the object is (weakly) closer to the target than
// the other object is — the pairwise core of Example 4's 1-NN.
type CloserThan struct {
	Target trajectory.Trajectory
	Other  mod.OID
}

// String implements TimeFormula.
func (f CloserThan) String() string { return fmt.Sprintf("dist(y) <= dist(%s)", f.Other) }

// Holds implements TimeFormula.
func (f CloserThan) Holds(ctx *EvalContext, y mod.OID, lo, hi float64) (SpanSet, error) {
	tr, err := ctx.traj(y)
	if err != nil {
		return SpanSet{}, err
	}
	other, err := ctx.traj(f.Other)
	if err != nil {
		return SpanSet{}, err
	}
	d := gdist.EuclideanSq{Query: f.Target}
	cy, err := d.Curve(tr, lo, hi)
	if err != nil {
		return SpanSet{}, nil
	}
	co, err := d.Curve(other, lo, hi)
	if err != nil {
		// The other object does not exist in the window: vacuously
		// closer wherever y exists.
		ylo, yhi := cy.Domain()
		return NewSpanSet(Span{ylo, yhi}), nil
	}
	diff, err := cy.Sub(co)
	if err != nil {
		return SpanSet{}, nil
	}
	dlo, dhi := diff.Domain()
	closer, err := SolvePiecewiseLE(diff, dlo, dhi)
	if err != nil {
		return SpanSet{}, err
	}
	// Where the other object is absent but y lives, y wins by default.
	ylo, yhi := cy.Domain()
	olo, ohi := co.Domain()
	absent := NewSpanSet(Span{olo, ohi}).Complement(ylo, yhi)
	return closer.Union(absent), nil
}

// AndF is conjunction.
type AndF struct{ X, Y TimeFormula }

// String implements TimeFormula.
func (f AndF) String() string { return "(" + f.X.String() + " ∧ " + f.Y.String() + ")" }

// Holds implements TimeFormula.
func (f AndF) Holds(ctx *EvalContext, y mod.OID, lo, hi float64) (SpanSet, error) {
	a, err := f.X.Holds(ctx, y, lo, hi)
	if err != nil || a.IsEmpty() {
		return SpanSet{}, err
	}
	b, err := f.Y.Holds(ctx, y, lo, hi)
	if err != nil {
		return SpanSet{}, err
	}
	return a.Intersect(b), nil
}

// OrF is disjunction.
type OrF struct{ X, Y TimeFormula }

// String implements TimeFormula.
func (f OrF) String() string { return "(" + f.X.String() + " ∨ " + f.Y.String() + ")" }

// Holds implements TimeFormula.
func (f OrF) Holds(ctx *EvalContext, y mod.OID, lo, hi float64) (SpanSet, error) {
	a, err := f.X.Holds(ctx, y, lo, hi)
	if err != nil {
		return SpanSet{}, err
	}
	b, err := f.Y.Holds(ctx, y, lo, hi)
	if err != nil {
		return SpanSet{}, err
	}
	return a.Union(b), nil
}

// NotF is negation (complement within the window, closed-span semantics).
type NotF struct{ X TimeFormula }

// String implements TimeFormula.
func (f NotF) String() string { return "¬" + f.X.String() }

// Holds implements TimeFormula.
func (f NotF) Holds(ctx *EvalContext, y mod.OID, lo, hi float64) (SpanSet, error) {
	a, err := f.X.Holds(ctx, y, lo, hi)
	if err != nil {
		return SpanSet{}, err
	}
	return a.Complement(lo, hi), nil
}

// ForAllOthers holds at t when Make(z) holds of y for every other object
// z — the universal quantifier of Example 4.
type ForAllOthers struct {
	Make func(z mod.OID) TimeFormula
	Desc string
}

// String implements TimeFormula.
func (f ForAllOthers) String() string {
	if f.Desc != "" {
		return "∀z(" + f.Desc + ")"
	}
	return "∀z(...)"
}

// Holds implements TimeFormula.
func (f ForAllOthers) Holds(ctx *EvalContext, y mod.OID, lo, hi float64) (SpanSet, error) {
	out := NewSpanSet(Span{lo, hi})
	for z := range ctx.Trajs {
		if z == y {
			continue
		}
		s, err := f.Make(z).Holds(ctx, y, lo, hi)
		if err != nil {
			return SpanSet{}, err
		}
		out = out.Intersect(s)
		if out.IsEmpty() {
			return out, nil
		}
	}
	return out, nil
}

// Evaluate computes the span set of every object: the Section 3 analogue
// of the snapshot answer. Objects with empty sets are omitted.
func Evaluate(db *mod.DB, f TimeFormula, lo, hi float64) (map[mod.OID]SpanSet, error) {
	if !(lo < hi) {
		return nil, fmt.Errorf("cql: bad window [%g,%g]", lo, hi)
	}
	ctx := NewContext(db)
	out := map[mod.OID]SpanSet{}
	for y := range ctx.Trajs {
		s, err := f.Holds(ctx, y, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("cql: evaluate %s: %w", y, err)
		}
		if !s.IsEmpty() {
			out[y] = s
		}
	}
	return out, nil
}

// Sometime is the paper's existential (accumulative) reading: objects
// satisfying the formula at some instant of the window.
func Sometime(db *mod.DB, f TimeFormula, lo, hi float64) ([]mod.OID, error) {
	m, err := Evaluate(db, f, lo, hi)
	if err != nil {
		return nil, err
	}
	var out []mod.OID
	for o := range m {
		out = append(out, o)
	}
	slices.Sort(out)
	return out, nil
}

// Always is the universal (persevering) reading: objects satisfying the
// formula throughout the window.
func Always(db *mod.DB, f TimeFormula, lo, hi float64) ([]mod.OID, error) {
	m, err := Evaluate(db, f, lo, hi)
	if err != nil {
		return nil, err
	}
	var out []mod.OID
	for o, s := range m {
		if s.Measure() >= (hi-lo)-1e-9 {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out, nil
}

// clipLife intersects [lo,hi] with the trajectory lifetime.
func clipLife(tr trajectory.Trajectory, lo, hi float64) (float64, float64, bool) {
	clo := math.Max(lo, tr.Start())
	chi := math.Min(hi, tr.End())
	return clo, chi, clo < chi
}
