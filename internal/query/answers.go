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
	"slices"
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

// AnswerSet holds, per object, the closed time intervals during which
// the object belongs to the query answer. It is the finite
// representation of the (possibly infinite) snapshot answer Q^s.
//
// A set has two forms. While a sweep accumulates it, memberships open
// and close in any object order and live in the closed and open maps.
// A finished set — one that Finish sealed, one born whole from the
// uncertainty queries, one MergeDisjoint produced — is a single sorted
// run: its objects ascending in oids, object i's intervals
// ivs[offs[i]:offs[i+1]] of one backing array, and no maps at all.
// Every stage from the bead kernel to the wire keeps that order instead
// of rebuilding it.
type AnswerSet struct {
	oids []mod.OID
	offs []int // one more than oids, from 0
	ivs  []Interval

	// Both maps are nil once the set is a run.
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

// newFinishedAnswerSet returns an empty run already finalized at endT,
// with room for n objects: the shape of an answer that is computed
// whole (the uncertainty queries) instead of accumulated from a sweep's
// enter/leave events.
func newFinishedAnswerSet(n int, endT float64) *AnswerSet {
	return &AnswerSet{
		oids: make([]mod.OID, 0, n),
		offs: make([]int, 1, n+1),
		ivs:  make([]Interval, 0, n),
		endT: endT,
		done: true,
	}
}

// appendSorted ends the run with o and its memberships: the bead
// layer's sorted, disjoint intervals, copied as Enter+Leave (or Point,
// for a single instant) would record each in turn. o must follow every
// object of the run; an object without intervals is not an answer and
// is left out.
//
// Two coalescing rules meet here and only the first can fire. The
// kernel walk (bead.Track.within) merges an interval starting at a into
// its predecessor when a <= prev.Hi + 1e-12*max(1, |a|); appendInterval
// merges when a <= prev.Hi + 1e-12. Rounding is monotone and
// 1e-12*max(1, |a|) >= 1e-12, so whatever the kernel left apart
// satisfies a > prev.Hi + 1e-12 as well, and the single-instant rewrite
// below changes no Hi by value: the copy need not test again.
// TestCopiedAnswersEqualRemerged (internal/shard) holds the copy to the
// re-merged form bit for bit.
func (r *AnswerSet) appendSorted(o mod.OID, ivs []bead.Interval) {
	if len(ivs) == 0 {
		return
	}
	if n := len(r.oids); n > 0 && o <= r.oids[n-1] {
		panic(fmt.Sprintf("query: answer run out of order: %s after %s", o, r.oids[n-1]))
	}
	for _, iv := range ivs {
		hi := iv.Hi
		if !(hi > iv.Lo) {
			hi = iv.Lo // a single instant, as Point records it
		}
		r.ivs = append(r.ivs, Interval{Lo: iv.Lo, Hi: hi})
	}
	r.oids = append(r.oids, o)
	r.offs = append(r.offs, len(r.ivs))
}

// Enter records that o satisfies the query from time t (idempotent while
// already a member). Enter, Leave and Point record into a set a sweep is
// accumulating; recording into a finished set panics.
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

// Finish closes all open intervals at the end of the evaluation window
// and seals the set into its run, dropping both maps. A sweep's answer
// names few objects, so sorting them here is cheap; the answers that
// name thousands are born as runs.
func (r *AnswerSet) Finish(t float64) {
	for o, start := range r.open {
		r.appendInterval(o, Interval{Lo: start, Hi: t})
	}
	r.endT = t
	r.done = true
	if r.closed != nil {
		r.oids, r.offs, r.ivs = r.Run()
	}
	r.closed, r.open = nil, nil
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

// Run returns the set as one sorted run: the objects Objects lists,
// ascending, and their recorded intervals end to end in ivs, those of
// oids[i] being ivs[offs[i]:offs[i+1]] (none yet for an object whose
// only membership is still open). For a finished set these are its own
// storage, which the caller must neither modify nor keep; a set still
// accumulating builds them for the call.
func (r *AnswerSet) Run() (oids []mod.OID, offs []int, ivs []Interval) {
	if r.closed == nil {
		return r.oids, r.offs, r.ivs
	}
	n := 0
	oids = make([]mod.OID, 0, len(r.closed)+len(r.open))
	for o, ivs := range r.closed {
		oids = append(oids, o)
		n += len(ivs)
	}
	for o := range r.open {
		if _, ok := r.closed[o]; !ok {
			oids = append(oids, o)
		}
	}
	slices.Sort(oids)
	offs = make([]int, 1, len(oids)+1)
	ivs = make([]Interval, 0, n)
	for _, o := range oids {
		ivs = append(ivs, r.closed[o]...)
		offs = append(offs, len(ivs))
	}
	return oids, offs, ivs
}

// Intervals returns the recorded intervals for o (nil if none).
func (r *AnswerSet) Intervals(o mod.OID) []Interval {
	ivs := r.closed[o]
	if r.closed == nil {
		if i, ok := slices.BinarySearch(r.oids, o); ok {
			ivs = r.ivs[r.offs[i]:r.offs[i+1]]
		}
	}
	out := make([]Interval, len(ivs))
	copy(out, ivs)
	return out
}

// Objects returns all objects with any membership, ascending.
func (r *AnswerSet) Objects() []mod.OID {
	oids, _, _ := r.Run()
	return slices.Clone(oids)
}

// At returns the snapshot answer at time t: all objects whose intervals
// contain t (plus currently-open memberships that began at or before t),
// ascending.
func (r *AnswerSet) At(t float64) []mod.OID {
	var out []mod.OID
	oids, offs, ivs := r.Run()
	for i, o := range oids {
		start, open := r.open[o]
		in := open && start <= t
		for _, iv := range ivs[offs[i]:offs[i+1]] {
			in = in || iv.Contains(t)
		}
		if in {
			out = append(out, o)
		}
	}
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
	oids, offs, ivs := r.Run()
	for i, o := range oids {
		cover := lo
		for _, iv := range ivs[offs[i]:offs[i+1]] {
			if iv.Lo > cover+tol {
				break
			}
			if iv.Hi > cover {
				cover = iv.Hi
			}
		}
		if start, ok := r.open[o]; ok && start <= cover+tol {
			cover = math.Inf(1)
		}
		if cover >= hi-tol {
			out = append(out, o)
		}
	}
	return out
}

// MergeDisjoint combines finalized answer sets over pairwise-disjoint
// object sets — the coordinator step of a sharded evaluation, where each
// shard answers for its own objects — by one linear merge of their runs.
// Intervals are copied; the result is finalized at the latest of the
// parts' end times. Panics if an object appears in more than one part
// (the sharding invariant is violated) or if a part still has open
// memberships (not finalized).
func MergeDisjoint(sets ...*AnswerSet) *AnswerSet {
	type part struct {
		oids []mod.OID
		offs []int
		ivs  []Interval
		next int // the first object not merged yet
	}
	out := &AnswerSet{}
	parts := make([]part, 0, len(sets))
	objs, ivals := 0, 0
	for _, s := range sets {
		if s == nil {
			continue
		}
		if len(s.open) > 0 {
			panic("query: MergeDisjoint on a non-finalized answer set")
		}
		if s.done {
			out.done = true
			if s.endT > out.endT {
				out.endT = s.endT
			}
		}
		var p part
		p.oids, p.offs, p.ivs = s.Run()
		parts = append(parts, p)
		objs += len(p.oids)
		ivals += len(p.ivs)
	}
	out.oids = make([]mod.OID, 0, objs)
	out.offs = make([]int, 1, objs+1)
	out.ivs = make([]Interval, 0, ivals)
	for len(out.oids) < objs {
		var p *part // the part whose next object is the least
		for i := range parts {
			if c := &parts[i]; c.next < len(c.oids) && (p == nil || c.oids[c.next] < p.oids[p.next]) {
				p = c
			}
		}
		o := p.oids[p.next]
		// Equal objects leave the merge one after the other, however far
		// apart their parts are.
		if n := len(out.oids); n > 0 && o == out.oids[n-1] {
			panic(fmt.Sprintf("query: MergeDisjoint: %s in more than one part", o))
		}
		out.ivs = append(out.ivs, p.ivs[p.offs[p.next]:p.offs[p.next+1]]...)
		out.oids = append(out.oids, o)
		out.offs = append(out.offs, len(out.ivs))
		p.next++
	}
	return out
}

// String renders the answer set as "o1: [a,b] [c,d]; o2: ..." for tests
// and the CLI.
func (r *AnswerSet) String() string {
	var b strings.Builder
	oids, offs, ivs := r.Run()
	for i, o := range oids {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s:", o)
		for _, iv := range ivs[offs[i]:offs[i+1]] {
			fmt.Fprintf(&b, " %s", iv)
		}
		if start, ok := r.open[o]; ok {
			fmt.Fprintf(&b, " [%g,...)", start)
		}
	}
	return b.String()
}
