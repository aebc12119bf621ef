package query

import (
	"sort"

	"repro/internal/core"
	"repro/internal/mod"
)

// RankTracker records the full rank timeline of one object under the
// engine's g-distance: at every instant, how many live objects are
// strictly nearer. Rank changes are a by-product of the precedence
// relation the sweep maintains, so each support change costs O(log N)
// (one rank query) and the output is a step function over time.
type RankTracker struct {
	// O is the tracked object.
	O mod.OID

	e     *Engine
	steps []RankStep
	cur   int
}

// RankStep is one plateau of the rank timeline: the object held Rank
// from T until the next step (or the window end). Rank -1 means the
// object was absent (not yet created, terminated, or expired).
type RankStep struct {
	T    float64
	Rank int
}

// NewRankTracker builds a tracker for object o.
func NewRankTracker(o mod.OID) *RankTracker { return &RankTracker{O: o} }

// Attach implements Evaluator.
func (rt *RankTracker) Attach(e *Engine) error {
	rt.e = e
	rt.cur = -2 // sentinel: no step emitted yet
	return nil
}

// rankNow computes the tracked object's current rank among objects
// (constant curves excluded), or -1 when absent.
func (rt *RankTracker) rankNow() int {
	id := uint64(rt.O)
	if !rt.e.sw.Contains(id) {
		return -1
	}
	// Count object entries strictly before the tracked one, skipping
	// constant curves other evaluators may have registered.
	rank := 0
	rt.e.sw.Walk(func(x uint64) bool {
		if x == id {
			return false
		}
		if !IsConstID(x) {
			rank++
		}
		return true
	})
	return rank
}

// OnChange implements Evaluator.
func (rt *RankTracker) OnChange(c core.Change) {
	// Only changes touching the tracked object or the population can
	// move its rank; recomputing on every change keeps it simple and
	// still O(rank) per event via the walk.
	r := rt.rankNow()
	if r == rt.cur {
		return
	}
	rt.cur = r
	// Same-instant churn (e.g. the initial seeding inserts) collapses to
	// the final rank at that instant.
	if n := len(rt.steps); n > 0 && rt.steps[n-1].T == c.T { //modlint:allow floatcmp -- same-instant events carry the identical stored timestamp
		rt.steps[n-1].Rank = r
		// Collapsing may recreate the previous plateau; merge it away.
		if n > 1 && rt.steps[n-2].Rank == r {
			rt.steps = rt.steps[:n-1]
		}
		return
	}
	rt.steps = append(rt.steps, RankStep{T: c.T, Rank: r})
}

// Finish implements Evaluator.
func (rt *RankTracker) Finish(t float64) {
	if len(rt.steps) == 0 {
		rt.steps = append(rt.steps, RankStep{T: t, Rank: rt.rankNow()})
	}
}

// Steps returns the rank timeline in time order (consecutive duplicates
// merged).
func (rt *RankTracker) Steps() []RankStep {
	out := make([]RankStep, len(rt.steps))
	copy(out, rt.steps)
	return out
}

// RankAt returns the rank in force at time t (-1 before the first step).
func (rt *RankTracker) RankAt(t float64) int {
	i := sort.Search(len(rt.steps), func(i int) bool { return rt.steps[i].T > t })
	if i == 0 {
		return -1
	}
	return rt.steps[i-1].Rank
}

// Best returns the best (lowest nonnegative) rank ever held and its
// first time; ok is false if the object never appeared.
func (rt *RankTracker) Best() (rank int, at float64, ok bool) {
	best := -1
	var t float64
	for _, s := range rt.steps {
		if s.Rank < 0 {
			continue
		}
		if best < 0 || s.Rank < best {
			best, t = s.Rank, s.T
		}
	}
	return best, t, best >= 0
}
