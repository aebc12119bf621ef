package sub

import (
	"slices"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
)

// subscription is one materialized continuing query: a small plane-sweep
// engine over the query's candidate pool, the current answer, and the
// attached subscriber streams. All fields are owned by the registry's
// pump goroutine; streams are the only concurrency boundary.
type subscription struct {
	sid    uint64 // registry-assigned, stable for the subscription's life
	boxID  uint64 // current interest-tree registration (0 when global)
	key    string
	q      Query    // normalized
	center geom.Vec // == q.Point
	lastT  float64  // time of the last emitted delta (or the build time)

	f   gdist.GDistance // squared distance to center
	eng *query.Engine
	// ev is the query's evaluator, built once and re-attached to every
	// engine the subscription is rebuilt on (Attach resets it).
	ev evaluator

	// poolR2 is the pool threshold the rank ladder gave at the last
	// build — the squared candidate-ball radius; +Inf when the pool is
	// the whole database, Radius² for within. guard watches the pool's
	// sufficiency at that threshold: once its sentinel ranks among the
	// first k entries, fewer than k objects are inside the ball, the
	// answer may include objects outside the pool, and the pool must be
	// rebuilt.
	poolR2 float64
	guard  *query.Guard

	tracked map[mod.OID]struct{} // objects inserted into eng
	cur     []mod.OID            // current answer (k-NN: rank order; within: ascending)
	scratch []mod.OID
	seq     uint64

	// builtTau is the snapshot time of the last build and rung its place
	// on the ladder: a rebuild at the same instant climbs, a later one
	// starts over (Registry.materialize).
	builtTau float64
	rung     int

	streams    []*Stream
	routeEpoch uint64 // dedup stamp during routing
	done       bool
}

// evaluator is what a subscription needs of query.KNN and query.Within:
// what the answer reads of the order, and the answer.
type evaluator interface {
	query.Bounder
	AppendCurrent(dst []mod.OID) []mod.OID
}

// answer reconciles s.cur with the evaluator's current answer and
// returns (add, remove, order, changed). add/remove are ascending;
// order is the full new ranking for k-NN (nil for within, and nil when
// only membership semantics apply). The no-change path allocates
// nothing: the fresh answer lands in s.scratch and is compared in
// place.
func (s *subscription) answer() (add, remove, order []mod.OID, changed bool) {
	s.scratch = s.ev.AppendCurrent(s.scratch[:0])
	if slices.Equal(s.cur, s.scratch) {
		return nil, nil, nil, false
	}
	oldSorted := append([]mod.OID(nil), s.cur...)
	newSorted := append([]mod.OID(nil), s.scratch...)
	if s.q.Kind == KNN {
		slices.Sort(oldSorted)
		slices.Sort(newSorted)
		order = append([]mod.OID(nil), s.scratch...)
	}
	// Merge walk over the ascending views.
	i, j := 0, 0
	for i < len(oldSorted) || j < len(newSorted) {
		switch {
		case i == len(oldSorted):
			add = append(add, newSorted[j])
			j++
		case j == len(newSorted):
			remove = append(remove, oldSorted[i])
			i++
		case oldSorted[i] == newSorted[j]:
			i++
			j++
		case oldSorted[i] < newSorted[j]:
			remove = append(remove, oldSorted[i])
			i++
		default:
			add = append(add, newSorted[j])
			j++
		}
	}
	s.cur, s.scratch = s.scratch, s.cur
	return add, remove, order, true
}
