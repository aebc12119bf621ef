package query

import (
	"errors"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/mod"
)

// KNN maintains the k-nearest-neighbors answer (Examples 6, 10, 12 of the
// paper): the set of objects whose g-distance curves are among the k
// lowest at each instant. Its FO(f) formula for k=1 is
//
//	phi(y, t) = forall z ( d(y,t) <= d(z,t) )
//
// and the general k version counts at most k-1 strictly-closer objects.
// The evaluator derives the set directly from the precedence relation: the
// first k object entries of the order. Each support change costs O(k).
type KNN struct {
	K int

	e   *Engine
	ans *AnswerSet
	cur map[mod.OID]bool
	now []mod.OID // refresh's scratch: the first K object entries
}

// NewKNN builds a k-NN evaluator.
func NewKNN(k int) *KNN { return &KNN{K: k} }

// Attach implements Evaluator.
func (q *KNN) Attach(e *Engine) error {
	if q.K <= 0 {
		return errors.New("query: KNN needs K >= 1")
	}
	q.e = e
	q.ans = NewAnswerSet()
	q.cur = make(map[mod.OID]bool)
	return nil
}

// Bound implements Bounder: the answer is the first K object entries.
func (q *KNN) Bound() Bound { return Bound{Below: math.Inf(-1), First: q.K} }

// OnChange implements Evaluator.
func (q *KNN) OnChange(c core.Change) {
	switch c.Kind {
	case core.ChangeEqual:
		// A meeting at the answer boundary grants the outside object a
		// point membership at the meeting instant (<= holds there even
		// for a tangency that never swaps).
		q.refresh(c.T)
		if IsConstID(c.A) || IsConstID(c.B) {
			return
		}
		oa, ob := mod.OID(c.A), mod.OID(c.B)
		if q.cur[oa] && !q.cur[ob] {
			q.ans.Point(ob, c.T)
		}
		if q.cur[ob] && !q.cur[oa] {
			q.ans.Point(oa, c.T)
		}
	default:
		q.refresh(c.T)
	}
}

// refresh reconciles the maintained answer with the current first-k
// set. It runs on every support change, nearly all of which leave the
// set as it was; that path allocates nothing.
func (q *KNN) refresh(t float64) {
	q.now = q.AppendCurrent(q.now[:0])
	for _, o := range q.now {
		if !q.cur[o] {
			q.cur[o] = true
			q.ans.Enter(o, t)
		}
	}
	// cur holds every current member, so it is larger than the first-k
	// set exactly when someone left.
	if len(q.cur) == len(q.now) {
		return
	}
	for o := range q.cur {
		if !slices.Contains(q.now, o) {
			delete(q.cur, o)
			q.ans.Leave(o, t)
		}
	}
}

// Finish implements Evaluator.
func (q *KNN) Finish(t float64) { q.ans.Finish(t) }

// Answer returns the accumulated answer set.
func (q *KNN) Answer() *AnswerSet { return q.ans }

// Current returns the k-NN set at the current sweep time, in rank order
// (nearest first — the precedence order of the sweep).
func (q *KNN) Current() []mod.OID {
	if q.e == nil {
		return nil
	}
	return q.AppendCurrent(make([]mod.OID, 0, q.K))
}

// AppendCurrent appends the current k-NN set, in rank order, to dst and
// returns the extended slice — the allocation-free variant of Current
// for callers that diff answers on every update (pass dst[:0] to reuse
// the buffer; steady state allocates nothing once dst's capacity
// reaches K).
func (q *KNN) AppendCurrent(dst []mod.OID) []mod.OID {
	if q.e == nil {
		return dst
	}
	n := 0
	q.e.sw.Walk(func(id uint64) bool {
		if !IsConstID(id) {
			dst = append(dst, mod.OID(id))
			n++
		}
		return n < q.K
	})
	return dst
}
