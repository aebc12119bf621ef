// Package query implements the paper's FO(f) generalized-distance query
// language (Section 4) on top of the plane-sweep engine (internal/core).
//
// A query (y, t, I, phi) is evaluated by maintaining, across the interval
// I, the set Q[D]_t of objects satisfying phi at each instant. Lemma 8
// says Q[D]_t changes only when the precedence relation of instantiated
// real terms changes, i.e. at sweep events; the evaluators in this package
// subscribe to the sweeper's support-change stream and assemble, per
// object, the set of time intervals during which it satisfies the query.
// The three answer modes of the paper fall out of that representation:
//
//   - snapshot answer Q^s: pairs (o, t) — interval membership,
//   - accumulative answer Q-exists: objects with a non-empty interval set,
//   - persevering answer Q-forall: objects whose intervals cover I.
package query

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bead"
	"repro/internal/mod"
)

// Interval is a closed time interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t float64) bool { return t >= iv.Lo && t <= iv.Hi }

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%g,%g]", iv.Lo, iv.Hi) }

// AnswerSet accumulates, per object, the closed time intervals during
// which the object belongs to the query answer. It is the finite
// representation of the (possibly infinite) snapshot answer Q^s.
type AnswerSet struct {
	closed map[mod.OID][]Interval
	open   map[mod.OID]float64 // entry time of currently-open membership
	endT   float64             // time at which the set was finalized
	done   bool
}

// NewAnswerSet returns an empty answer set.
func NewAnswerSet() *AnswerSet {
	return &AnswerSet{
		closed: make(map[mod.OID][]Interval),
		open:   make(map[mod.OID]float64),
	}
}

// newFinishedAnswerSet returns an empty answer set already finalized at
// endT, with room for n objects: the shape of an answer that is
// computed whole (the uncertainty queries) instead of accumulated from
// a sweep's enter/leave events.
func newFinishedAnswerSet(n int, endT float64) *AnswerSet {
	return &AnswerSet{
		closed: make(map[mod.OID][]Interval, n),
		open:   make(map[mod.OID]float64),
		endT:   endT,
		done:   true,
	}
}

// appendSorted records o's memberships from the bead layer's sorted,
// disjoint intervals — what Enter+Leave (or Point, for a single
// instant) would record for each in turn, without the round trip
// through the open map.
func (r *AnswerSet) appendSorted(o mod.OID, ivs []bead.Interval) {
	for _, iv := range ivs {
		hi := iv.Hi
		if !(hi > iv.Lo) {
			hi = iv.Lo // a single instant, as Point records it
		}
		r.appendInterval(o, Interval{Lo: iv.Lo, Hi: hi})
	}
}

// Enter records that o satisfies the query from time t (idempotent while
// already a member).
func (r *AnswerSet) Enter(o mod.OID, t float64) {
	if _, ok := r.open[o]; !ok {
		r.open[o] = t
	}
}

// Leave records that o stops satisfying the query at time t. The interval
// is closed on both ends: the instant of an order exchange belongs to both
// the leaving and the entering object, matching the paper's >=-based
// precedence (ties are answers). A membership that opens and closes at
// the same instant is discarded — transient churn while a batch of
// same-instant changes settles (e.g. the initial seeding) is not an
// answer; genuine instant-ties are recorded explicitly via Point by the
// evaluators' equality handling.
func (r *AnswerSet) Leave(o mod.OID, t float64) {
	start, ok := r.open[o]
	if !ok {
		return
	}
	delete(r.open, o)
	if t <= start {
		return
	}
	r.appendInterval(o, Interval{Lo: start, Hi: t})
}

// Point records a degenerate instant membership [t, t]: the object ties
// with the answer boundary exactly at t (a tangency or exchange instant).
func (r *AnswerSet) Point(o mod.OID, t float64) {
	if _, ok := r.open[o]; ok {
		return // already a member; the instant is inside an interval
	}
	r.appendInterval(o, Interval{Lo: t, Hi: t})
}

// Member reports whether o is currently in the answer (open interval).
func (r *AnswerSet) Member(o mod.OID) bool {
	_, ok := r.open[o]
	return ok
}

// Finish closes all open intervals at the end of the evaluation window.
func (r *AnswerSet) Finish(t float64) {
	for o, start := range r.open {
		r.appendInterval(o, Interval{Lo: start, Hi: t})
		delete(r.open, o)
	}
	r.endT = t
	r.done = true
}

func (r *AnswerSet) appendInterval(o mod.OID, iv Interval) {
	ivs := r.closed[o]
	// Merge with the previous interval when contiguous (an object that
	// leaves and re-enters at the same instant never really left).
	if n := len(ivs); n > 0 && iv.Lo <= ivs[n-1].Hi+1e-12 {
		if iv.Hi > ivs[n-1].Hi {
			ivs[n-1].Hi = iv.Hi
		}
		r.closed[o] = ivs
		return
	}
	r.closed[o] = append(ivs, iv)
}

// Intervals returns the recorded intervals for o (nil if none).
func (r *AnswerSet) Intervals(o mod.OID) []Interval {
	ivs := r.closed[o]
	out := make([]Interval, len(ivs))
	copy(out, ivs)
	return out
}

// Each calls fn once for every object Objects lists, in no particular
// order, with the object's recorded intervals: the set's own storage,
// which fn must neither modify nor keep. An object whose only
// membership is still open has none yet.
func (r *AnswerSet) Each(fn func(o mod.OID, ivs []Interval)) {
	for o, ivs := range r.closed {
		fn(o, ivs)
	}
	for o := range r.open {
		if _, ok := r.closed[o]; !ok {
			fn(o, nil)
		}
	}
}

// Objects returns all objects with any membership, ascending.
func (r *AnswerSet) Objects() []mod.OID {
	var out []mod.OID
	for o := range r.closed {
		out = append(out, o)
	}
	for o := range r.open {
		if _, ok := r.closed[o]; !ok {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// At returns the snapshot answer at time t: all objects whose intervals
// contain t (plus currently-open memberships that began at or before t).
func (r *AnswerSet) At(t float64) []mod.OID {
	var out []mod.OID
	for o, ivs := range r.closed {
		for _, iv := range ivs {
			if iv.Contains(t) {
				out = append(out, o)
				break
			}
		}
	}
	for o, start := range r.open {
		if start <= t {
			already := false
			for _, x := range out {
				if x == o {
					already = true
					break
				}
			}
			if !already {
				out = append(out, o)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Existential returns the paper's accumulative answer: objects satisfying
// the query at some instant.
func (r *AnswerSet) Existential() []mod.OID { return r.Objects() }

// Universal returns the paper's persevering answer over [lo, hi]: objects
// whose recorded intervals cover the whole window (tolerating the
// measure-zero gaps of exchange instants).
func (r *AnswerSet) Universal(lo, hi float64) []mod.OID {
	var out []mod.OID
	const tol = 1e-9
	for _, o := range r.Objects() {
		cover := lo
		ivs := r.closed[o]
		if start, ok := r.open[o]; ok {
			ivs = append(append([]Interval{}, ivs...), Interval{Lo: start, Hi: math.Inf(1)})
		}
		for _, iv := range ivs {
			if iv.Lo > cover+tol {
				break
			}
			if iv.Hi > cover {
				cover = iv.Hi
			}
		}
		if cover >= hi-tol {
			out = append(out, o)
		}
	}
	return out
}

// MergeDisjoint combines finalized answer sets over pairwise-disjoint
// object sets — the coordinator step of a sharded evaluation, where each
// shard answers for its own objects. Intervals are copied; the result is
// finalized at the latest of the parts' end times. Panics if an object
// appears in more than one part (the sharding invariant is violated) or
// if a part still has open memberships (not finalized).
func MergeDisjoint(sets ...*AnswerSet) *AnswerSet {
	objs, ivals := 0, 0
	for _, s := range sets {
		if s == nil {
			continue
		}
		objs += len(s.closed)
		for _, ivs := range s.closed {
			ivals += len(ivs)
		}
	}
	out := &AnswerSet{closed: make(map[mod.OID][]Interval, objs), open: make(map[mod.OID]float64)}
	// One backing array for every copied interval; each object's list is
	// capped at its own length, so a later append to one cannot run into
	// its neighbour.
	all := make([]Interval, 0, ivals)
	for _, s := range sets {
		if s == nil {
			continue
		}
		if len(s.open) > 0 {
			panic("query: MergeDisjoint on a non-finalized answer set")
		}
		for o, ivs := range s.closed {
			if _, dup := out.closed[o]; dup {
				panic(fmt.Sprintf("query: MergeDisjoint: %s in more than one part", o))
			}
			n := len(all)
			all = append(all, ivs...)
			out.closed[o] = all[n:len(all):len(all)]
		}
		if s.done {
			out.done = true
			if s.endT > out.endT {
				out.endT = s.endT
			}
		}
	}
	return out
}

// String renders the answer set as "o1: [a,b] [c,d]; o2: ..." for tests
// and the CLI.
func (r *AnswerSet) String() string {
	var b strings.Builder
	for i, o := range r.Objects() {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s:", o)
		for _, iv := range r.closed[o] {
			fmt.Fprintf(&b, " %s", iv)
		}
		if start, ok := r.open[o]; ok {
			fmt.Fprintf(&b, " [%g,...)", start)
		}
	}
	return b.String()
}
