package query

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/mod"
	"repro/internal/piecewise"
)

// Within maintains the answer of the threshold query f(y, t) <= C —
// the paper's "all flights within 50 km of Flight 623" (Example 11). The
// constant is materialized as a stationary curve in the sweep order, so
// threshold crossings are ordinary intersection events; membership of an
// object changes only at events involving the constant curve (Lemma 8).
type Within struct {
	C float64

	e       *Engine
	ans     *AnswerSet
	constID uint64
	cur     map[mod.OID]bool
}

// NewWithin builds a threshold evaluator for f(y,t) <= c.
func NewWithin(c float64) *Within { return &Within{C: c} }

// Attach implements Evaluator.
func (q *Within) Attach(e *Engine) error {
	q.e = e
	q.ans = NewAnswerSet()
	q.cur = make(map[mod.OID]bool)
	id, err := e.ConstID(q.C)
	if err != nil {
		return fmt.Errorf("query: Within constant: %w", err)
	}
	q.constID = id
	return nil
}

// Bound implements Bounder: membership is decided against the constant
// alone, so a curve that never comes down to it never matters.
func (q *Within) Bound() Bound { return Bound{Below: q.C} }

// memberAfter decides membership of object id on (t, t+delta): its curve
// is below (or coinciding with) the constant.
func (q *Within) memberAfter(id uint64, t float64) bool {
	fo, ok := q.e.sw.Curve(id)
	if !ok {
		return false
	}
	fc, _ := q.e.sw.Curve(q.constID)
	switch piecewise.SignDiffAfter(fo, fc, t) {
	case -1:
		return true
	case 0:
		return true // coinciding with the threshold: <= holds
	default:
		return false
	}
}

// setMembership reconciles one object's membership at time t.
func (q *Within) setMembership(o mod.OID, member bool, t float64) {
	switch {
	case member && !q.cur[o]:
		q.cur[o] = true
		q.ans.Enter(o, t)
	case !member && q.cur[o]:
		delete(q.cur, o)
		q.ans.Leave(o, t)
	}
}

// OnChange implements Evaluator.
func (q *Within) OnChange(c core.Change) {
	switch c.Kind {
	case core.ChangeInsert:
		if IsConstID(c.A) {
			return
		}
		q.setMembership(mod.OID(c.A), q.memberAfter(c.A, c.T), c.T)
	case core.ChangeRemove, core.ChangeExpire:
		if IsConstID(c.A) {
			return
		}
		q.setMembership(mod.OID(c.A), false, c.T)
	case core.ChangeEqual, core.ChangeSwap, core.ChangeSeparate:
		// Only events involving the constant can change membership.
		var objID uint64
		switch {
		case c.A == q.constID:
			objID = c.B
		case c.B == q.constID:
			objID = c.A
		default:
			return
		}
		if IsConstID(objID) {
			return
		}
		o := mod.OID(objID)
		member := q.memberAfter(objID, c.T)
		if c.Kind == core.ChangeEqual && !member && !q.cur[o] {
			// Tangency from above: <= holds exactly at the instant.
			q.ans.Point(o, c.T)
			return
		}
		q.setMembership(o, member, c.T)
	case core.ChangeReplace:
		// A chdir preserves the value at the replacement instant, so
		// membership is unchanged; future changes arrive as events.
	}
}

// Finish implements Evaluator.
func (q *Within) Finish(t float64) { q.ans.Finish(t) }

// Answer returns the accumulated answer set.
func (q *Within) Answer() *AnswerSet { return q.ans }

// Current returns the objects currently within the threshold, ascending.
func (q *Within) Current() []mod.OID {
	out := make([]mod.OID, 0, len(q.cur))
	for o := range q.cur {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// AppendCurrent appends the current answer set, ascending, to dst and
// returns the extended slice — the allocation-free variant of Current
// (pass dst[:0] to reuse the buffer across updates).
func (q *Within) AppendCurrent(dst []mod.OID) []mod.OID {
	base := len(dst)
	for o := range q.cur {
		dst = append(dst, o)
	}
	slices.Sort(dst[base:])
	return dst
}
