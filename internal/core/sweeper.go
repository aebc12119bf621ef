// Package core implements the paper's primary contribution: the
// plane-sweep query evaluation technique of Section 5.
//
// The Sweeper maintains, for a set of generalized-distance curves, the
// precedence relation <=_t (Definition 7) as a kinetic sorted list
// together with the event queue of pending adjacent-pair intersections
// (Lemma 7 guarantees curves become adjacent before they cross; Lemma 9's
// discipline keeps at most one event per adjacency, bounding the queue by
// N). Time only moves forward; AdvanceTo processes all intersection
// events up to the requested instant, emitting a stream of support
// changes which the query layer (internal/query) folds into answers.
//
// The cost model matches the paper's:
//
//   - building the initial order: O(N log N)           (Theorem 5.1)
//   - each intersection event: O(log N)                (Lemma 9)
//   - past queries: O((m+N) log N) for m events        (Theorem 4)
//   - curve replacement (chdir): O(log N)              (Theorem 5.2)
//   - replacing every curve (query chdir): O(N)        (Theorem 10)
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/eventq"
	"repro/internal/order"
	"repro/internal/piecewise"
	"repro/internal/poly"
)

// ChangeKind classifies entries of the support-change stream.
type ChangeKind int

const (
	// ChangeEqual fires when two adjacent curves meet: A ≡_t B begins.
	// The order has not yet changed when the callback runs.
	ChangeEqual ChangeKind = iota
	// ChangeSwap fires after A and B exchanged positions (B now precedes
	// A); the list already reflects the new order.
	ChangeSwap
	// ChangeSeparate fires when a coincidence stretch ends without the
	// order flipping.
	ChangeSeparate
	// ChangeInsert fires after a curve was added to the order.
	ChangeInsert
	// ChangeRemove fires after a curve was removed.
	ChangeRemove
	// ChangeReplace fires after a curve was replaced in place (chdir).
	ChangeReplace
	// ChangeExpire fires after a curve left the sweep because its domain
	// ended (object termination inside the window).
	ChangeExpire
)

// String implements fmt.Stringer.
func (k ChangeKind) String() string {
	switch k {
	case ChangeEqual:
		return "equal"
	case ChangeSwap:
		return "swap"
	case ChangeSeparate:
		return "separate"
	case ChangeInsert:
		return "insert"
	case ChangeRemove:
		return "remove"
	case ChangeReplace:
		return "replace"
	case ChangeExpire:
		return "expire"
	default:
		return "unknown"
	}
}

// AllCurves is the sentinel id carried by the ChangeReplace emitted from
// ReplaceAll (a chdir on the query trajectory replaces every curve).
const AllCurves uint64 = math.MaxUint64

// Change is one entry of the support-change stream. For pair kinds
// (Equal, Swap, Separate) A precedes B in the pre-event order; for unary
// kinds B is zero.
type Change struct {
	T    float64
	Kind ChangeKind
	A, B uint64
}

// String implements fmt.Stringer; used by golden trace tests.
func (c Change) String() string {
	switch c.Kind {
	case ChangeEqual, ChangeSwap, ChangeSeparate:
		return fmt.Sprintf("%g %s(%d,%d)", c.T, c.Kind, c.A, c.B)
	default:
		return fmt.Sprintf("%g %s(%d)", c.T, c.Kind, c.A)
	}
}

// Stats counts the work a sweep has performed.
type Stats struct {
	Events      int // intersection events processed
	Swaps       int // order exchanges
	Equals      int // meeting instants reported
	Coincides   int // coincidence stretches entered
	Expires     int // curves expired at domain end
	Inserts     int
	Removes     int
	Replaces    int
	Reschedules int // pair-event computations
	MaxQueueLen int
}

// Add accumulates o into s: counters add, MaxQueueLen takes the max.
// This is the canonical roll-up for concurrent sweeps — per-shard stats
// merge with it (internal/shard), and the observability layer
// (internal/obs) mirrors the same rule when per-shard histograms and
// high-water gauges combine. It is associative and commutative, so any
// grouping of partial roll-ups yields the same total.
func (s *Stats) Add(o Stats) {
	s.Events += o.Events
	s.Swaps += o.Swaps
	s.Equals += o.Equals
	s.Coincides += o.Coincides
	s.Expires += o.Expires
	s.Inserts += o.Inserts
	s.Removes += o.Removes
	s.Replaces += o.Replaces
	s.Reschedules += o.Reschedules
	if o.MaxQueueLen > s.MaxQueueLen {
		s.MaxQueueLen = o.MaxQueueLen
	}
}

// Config configures a Sweeper.
type Config struct {
	// Start is the initial sweep time.
	Start float64
	// Horizon bounds the sweep; events beyond it are not scheduled.
	// math.Inf(1) leaves the sweep unbounded.
	Horizon float64
	// Queue supplies the event-queue implementation; nil uses the
	// indexed binary heap. (The leftist tree of Lemma 9 is the
	// alternative; see internal/eventq.)
	Queue eventq.Queue
	// OnChange receives the support-change stream in time order.
	OnChange func(Change)
	// Audit enables O(N) order verification after every event; for
	// tests.
	Audit bool
}

// pairKey identifies a cached adjacency difference curve, in stored
// (left, right) adjacency order.
type pairKey struct{ a, b uint64 }

// pairDiffEntry is one cached difference curve plus the curve
// generations it was built from (see Sweeper.gens).
type pairDiffEntry struct {
	d          piecewise.PairDiff
	genA, genB uint64
}

// Sweeper is the plane-sweep engine.
type Sweeper struct {
	now      float64
	horizon  float64
	curves   map[uint64]piecewise.Func
	list     *order.List
	queue    eventq.Queue
	expiry   *eventq.Heap // (endTime, id) pseudo-events keyed by id
	recert   *eventq.Heap // (jumpTime, id) re-certification pseudo-events
	onChange func(Change)
	audit    bool
	stats    Stats

	// Pair-difference cache: one materialized difference curve per
	// current adjacency (see piecewise.PairDiff), so re-scheduling the
	// same pair as the sweep advances allocates nothing. Entries are
	// released to the pool when their adjacency dissolves (swap, insert
	// between, removal) and their storage is recycled; gens stamps every
	// curve id with a generation bumped on any curve change, so a cache
	// entry built from an outdated curve can never be consulted.
	diffs    map[pairKey]*pairDiffEntry
	diffPool []*pairDiffEntry
	gens     map[uint64]uint64
}

// Errors returned by the sweeper.
var (
	ErrPast       = errors.New("core: time is in the past")
	ErrHorizon    = errors.New("core: beyond sweep horizon")
	ErrNotCovered = errors.New("core: curve does not cover the current time")
	ErrDuplicate  = errors.New("core: curve id already present")
	ErrMissing    = errors.New("core: curve id not present")
)

// NewSweeper builds an empty sweeper at cfg.Start.
func NewSweeper(cfg Config) *Sweeper {
	q := cfg.Queue
	if q == nil {
		q = eventq.NewHeap()
	}
	return &Sweeper{
		now:      cfg.Start,
		horizon:  cfg.Horizon,
		curves:   make(map[uint64]piecewise.Func),
		list:     order.NewList(),
		queue:    q,
		expiry:   eventq.NewHeap(),
		recert:   eventq.NewHeap(),
		onChange: cfg.OnChange,
		audit:    cfg.Audit,
		diffs:    make(map[pairKey]*pairDiffEntry),
		gens:     make(map[uint64]uint64),
	}
}

// diffSlack is the margin below the first query time from which a pair
// difference is materialized, chosen to exceed boundTol-scale piece
// lookup slack and the justBefore nudge at any magnitude, so the
// same-instant re-queries a swap cascade issues stay covered without a
// rebuild.
func diffSlack(t float64) float64 {
	return 2e-9 + 2*math.Abs(t)*1e-12
}

// pairDiff returns the cached difference curve of the adjacency (a, b),
// building or rebuilding it — into recycled storage — when absent,
// stale (either curve changed since the build) or not covering query
// times >= at.
func (s *Sweeper) pairDiff(a, b uint64, at float64) *piecewise.PairDiff {
	k := pairKey{a, b}
	ga, gb := s.gens[a], s.gens[b]
	e := s.diffs[k]
	if e != nil && e.genA == ga && e.genB == gb && e.d.Covers(at) {
		return &e.d
	}
	if e == nil {
		if n := len(s.diffPool); n > 0 {
			e, s.diffPool = s.diffPool[n-1], s.diffPool[:n-1]
		} else {
			e = new(pairDiffEntry)
		}
		s.diffs[k] = e
	}
	e.d.Reset(s.curves[a], s.curves[b], at-diffSlack(at))
	e.genA, e.genB = ga, gb
	return &e.d
}

// releaseDiff returns the cached difference of a dissolved adjacency to
// the pool for storage reuse.
func (s *Sweeper) releaseDiff(a, b uint64) {
	k := pairKey{a, b}
	if e, ok := s.diffs[k]; ok {
		delete(s.diffs, k)
		s.diffPool = append(s.diffPool, e)
	}
}

// Now returns the current sweep time.
func (s *Sweeper) Now() float64 { return s.now }

// Horizon returns the sweep horizon.
func (s *Sweeper) Horizon() float64 { return s.horizon }

// Len returns the number of curves currently in the order.
func (s *Sweeper) Len() int { return s.list.Len() }

// Stats returns a copy of the work counters.
func (s *Sweeper) Stats() Stats { return s.stats }

// QueueLen returns the current number of pending intersection events.
func (s *Sweeper) QueueLen() int { return s.queue.Len() }

// NextEventTime peeks the time of the earliest pending event without
// advancing the sweep. Between now and that instant the precedence
// order — and therefore every answer derived from it — is provably
// constant (events are the only points where adjacent curves cross),
// which is what lets a subscription registry leave an untouched
// subscription parked until its next event is due.
func (s *Sweeper) NextEventTime() (float64, bool) {
	ev, ok := s.queue.Peek()
	if !ok {
		return 0, false
	}
	return ev.T, true
}

// Curve returns the curve registered under id.
func (s *Sweeper) Curve(id uint64) (piecewise.Func, bool) {
	f, ok := s.curves[id]
	return f, ok
}

// Value evaluates id's curve at the current time.
func (s *Sweeper) Value(id uint64) (float64, error) {
	f, ok := s.curves[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrMissing, id)
	}
	return f.Eval(s.now), nil
}

// Order returns the ids in precedence order at the current time (O(N)).
func (s *Sweeper) Order() []uint64 { return s.list.Items() }

// Rank returns the 0-based rank of id in the precedence order.
func (s *Sweeper) Rank(id uint64) (int, error) { return s.list.Rank(id) }

// At returns the id at the given rank.
func (s *Sweeper) At(rank int) (uint64, bool) { return s.list.At(rank) }

// FirstK returns the k least entries — the k-NN set under a distance
// g-distance.
func (s *Sweeper) FirstK(k int) []uint64 { return s.list.FirstK(k) }

// Contains reports whether id is currently in the sweep.
func (s *Sweeper) Contains(id uint64) bool { return s.list.Contains(id) }

// emit sends a change to the subscriber and updates counters.
func (s *Sweeper) emit(c Change) {
	switch c.Kind {
	case ChangeEqual:
		s.stats.Equals++
	case ChangeSwap:
		s.stats.Swaps++
	case ChangeSeparate:
		// counted under Coincides at entry
	case ChangeInsert:
		s.stats.Inserts++
	case ChangeRemove:
		s.stats.Removes++
	case ChangeReplace:
		s.stats.Replaces++
	case ChangeExpire:
		s.stats.Expires++
	}
	if s.onChange != nil {
		s.onChange(c)
	}
}

// CompareValues orders two curve values at one instant: -1 or +1 when
// they differ by more than 1e-9 relative to the larger magnitude (at
// least 1), and 0 — a tie, for the caller to break — otherwise. It is
// the one value tie of the curve order: the sweep's comparator, its
// replacement check and query.Formula's comparisons all decide by it.
func CompareValues(va, vb float64) int {
	scale := math.Max(1, math.Max(math.Abs(va), math.Abs(vb)))
	if d := va - vb; math.Abs(d) > 1e-9*scale {
		if d < 0 {
			return -1
		}
		return 1
	}
	return 0
}

// cmpAt builds the strict total order at time t: by curve value, then by
// the sign of the difference immediately after t (so entries inserted at
// a meeting instant land on the side they will occupy), then by id.
func (s *Sweeper) cmpAt(t float64) order.Cmp {
	return func(a, b uint64) int {
		fa, fb := s.curves[a], s.curves[b]
		if c := CompareValues(fa.Eval(t), fb.Eval(t)); c != 0 {
			return c
		}
		if sg := piecewise.SignDiffAfter(fa, fb, t); sg != 0 {
			return sg
		}
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
}

// schedulePair computes and enqueues the next intersection event for the
// adjacency (a, b), searching times strictly greater than `after`.
// Existing events keyed by a are replaced.
func (s *Sweeper) schedulePair(a, b uint64, after float64) {
	s.stats.Reschedules++
	d := s.pairDiff(a, b, after)
	t, coincide, ok := d.FirstMeetingAfter(after, s.horizon)
	if ok && t <= s.now+1e-12*math.Max(1, math.Abs(s.now)) {
		// A meeting at the current instant (found through a justBefore
		// window during a same-time swap cascade). It is only an event
		// if the pair still has to cross: if (fa - fb) is already
		// negative just after, the crossing was completed by an earlier
		// swap in this batch — look strictly beyond it.
		if d.SignAfter(t) < 0 {
			t, coincide, ok = d.FirstMeetingAfter(t, s.horizon)
		}
	}
	if !ok {
		s.queue.RemoveByLeft(a)
		return
	}
	if coincide && t <= after {
		// Already coinciding: the interesting event is the separation.
		sep, found := d.CoincidenceEndAfter(after, s.horizon)
		if !found {
			s.queue.RemoveByLeft(a)
			return
		}
		t = math.Max(sep, after)
	}
	if t > s.horizon {
		s.queue.RemoveByLeft(a)
		return
	}
	s.queue.Push(eventq.Event{T: math.Max(t, s.now), Left: a, Right: b})
	if n := s.queue.Len(); n > s.stats.MaxQueueLen {
		s.stats.MaxQueueLen = n
	}
}

// rescheduleAround refreshes the adjacency events that involve id and its
// current neighbors: (prev(id), id) and (id, next(id)).
func (s *Sweeper) rescheduleAround(id uint64, after float64) {
	if prev, ok := s.list.Prev(id); ok {
		s.schedulePair(prev, id, after)
	}
	if next, ok := s.list.Next(id); ok {
		s.schedulePair(id, next, after)
	} else {
		s.queue.RemoveByLeft(id)
	}
}

// AddCurve inserts a curve whose domain covers the current time (or
// begins at it). Cost O(log N).
func (s *Sweeper) AddCurve(id uint64, f piecewise.Func) error {
	if s.list.Contains(id) {
		return fmt.Errorf("%w: %d", ErrDuplicate, id)
	}
	if !f.InDomain(s.now) {
		lo, hi := f.Domain()
		return fmt.Errorf("%w: id %d domain [%g,%g], now %g", ErrNotCovered, id, lo, hi, s.now)
	}
	s.curves[id] = f
	s.gens[id]++
	if err := s.list.Insert(id, s.cmpAt(s.now)); err != nil {
		delete(s.curves, id)
		return err
	}
	// The insertion splits an adjacency (prev, next): refresh all three.
	prev, hasPrev := s.list.Prev(id)
	next, hasNext := s.list.Next(id)
	if hasPrev && hasNext {
		s.releaseDiff(prev, next)
	}
	if hasPrev {
		s.schedulePair(prev, id, s.now)
	}
	if hasNext {
		s.schedulePair(id, next, s.now)
	}
	s.scheduleExpiry(id, f)
	s.emit(Change{T: s.now, Kind: ChangeInsert, A: id})
	s.checkAudit()
	return nil
}

// scheduleExpiry arms the domain-end pseudo-event for id.
func (s *Sweeper) scheduleExpiry(id uint64, f piecewise.Func) {
	_, hi := f.Domain()
	if !math.IsInf(hi, 1) && hi < s.horizon {
		s.expiry.Push(eventq.Event{T: hi, Left: id})
	} else {
		s.expiry.RemoveByLeft(id)
	}
	s.scheduleRecert(id, f, s.now)
}

// scheduleRecert arms the next re-certification pseudo-event for a curve
// with jump discontinuities (the paper's relaxation of g-distances to
// finitely many continuous pieces). At a jump the curve's position in the
// precedence relation is invalid and the entry is re-inserted.
func (s *Sweeper) scheduleRecert(id uint64, f piecewise.Func, after float64) {
	for _, d := range f.Discontinuities(after, s.horizon) {
		if d > after {
			s.recert.Push(eventq.Event{T: d, Left: id})
			return
		}
	}
	s.recert.RemoveByLeft(id)
}

// RemoveCurve removes id from the sweep (a terminate update, or an
// expiry). Cost O(log N).
func (s *Sweeper) RemoveCurve(id uint64) error {
	return s.removeCurve(id, ChangeRemove)
}

func (s *Sweeper) removeCurve(id uint64, kind ChangeKind) error {
	if !s.list.Contains(id) {
		return fmt.Errorf("%w: %d", ErrMissing, id)
	}
	prev, hasPrev := s.list.Prev(id)
	next, hasNext := s.list.Next(id)
	if hasPrev {
		s.releaseDiff(prev, id)
	}
	if hasNext {
		s.releaseDiff(id, next)
	}
	if err := s.list.Delete(id); err != nil {
		return err
	}
	delete(s.curves, id)
	s.gens[id]++
	s.queue.RemoveByLeft(id)
	s.expiry.RemoveByLeft(id)
	s.recert.RemoveByLeft(id)
	if hasPrev {
		if hasNext {
			s.schedulePair(prev, next, s.now)
		} else {
			s.queue.RemoveByLeft(prev)
		}
	}
	s.emit(Change{T: s.now, Kind: kind, A: id})
	s.checkAudit()
	return nil
}

// ReplaceCurve swaps in a new curve for id. In the chdir case old and new
// curves coincide at the current time, so the entry keeps its position
// and only the events involving id are recomputed (Section 5); cost
// O(log N). If the new curve's value differs at the current instant (a
// discontinuous g-distance jumping exactly at the update), or the entry
// now leaves a neighbor it coincided with on the wrong side (misplaced),
// it is repositioned instead, as at any other jump.
func (s *Sweeper) ReplaceCurve(id uint64, f piecewise.Func) error {
	if !s.list.Contains(id) {
		return fmt.Errorf("%w: %d", ErrMissing, id)
	}
	if !f.InDomain(s.now) {
		lo, hi := f.Domain()
		return fmt.Errorf("%w: id %d new domain [%g,%g], now %g", ErrNotCovered, id, lo, hi, s.now)
	}
	oldV := s.curves[id].Eval(s.now)
	newV := f.Eval(s.now)
	s.curves[id] = f
	s.gens[id]++
	if CompareValues(newV, oldV) != 0 || s.misplaced(id) {
		s.scheduleExpiry(id, f)
		return s.recertify(id, s.now)
	}
	s.rescheduleAround(id, s.now)
	s.scheduleExpiry(id, f)
	s.emit(Change{T: s.now, Kind: ChangeReplace, A: id})
	s.checkAudit()
	return nil
}

// misplaced reports whether id is on the wrong side of a neighbor it
// ties with at the current time. Among curves that coincide the order is
// arbitrary (by id); once a replacement makes one of them leave the
// others, "keeps its position" no longer holds, and the meeting is at
// the current instant, where no later event would repair it.
func (s *Sweeper) misplaced(id uint64) bool {
	cmp := s.cmpAt(s.now)
	if prev, ok := s.list.Prev(id); ok && cmp(prev, id) > 0 {
		return true
	}
	next, ok := s.list.Next(id)
	return ok && cmp(id, next) > 0
}

// ReplaceAll swaps every curve at once — the paper's Theorem 10 case of a
// chdir on the query trajectory: all g-distances change but the current
// precedence relation remains correct, so no re-sorting happens. All
// adjacency events are recomputed in O(N) total.
func (s *Sweeper) ReplaceAll(curves map[uint64]piecewise.Func) error {
	if len(curves) != s.list.Len() {
		return fmt.Errorf("core: ReplaceAll got %d curves, sweep has %d", len(curves), s.list.Len())
	}
	for id, f := range curves {
		if !s.list.Contains(id) {
			return fmt.Errorf("%w: %d", ErrMissing, id)
		}
		if !f.InDomain(s.now) {
			return fmt.Errorf("%w: id %d", ErrNotCovered, id)
		}
	}
	for id, f := range curves {
		s.curves[id] = f
		s.gens[id]++
		s.scheduleExpiry(id, f)
	}
	items := s.list.Items()
	for i := 0; i+1 < len(items); i++ {
		s.schedulePair(items[i], items[i+1], s.now)
	}
	if n := len(items); n > 0 {
		s.queue.RemoveByLeft(items[n-1])
	}
	s.emit(Change{T: s.now, Kind: ChangeReplace, A: AllCurves})
	s.checkAudit()
	return nil
}

// AdvanceTo processes all intersection and expiry events up to and
// including time t, then sets the sweep time to t. It is the paper's
// "process each event ahead of the update" loop.
func (s *Sweeper) AdvanceTo(t float64) error {
	if t < s.now {
		return fmt.Errorf("%w: advance to %g, now %g", ErrPast, t, s.now)
	}
	if t > s.horizon {
		return fmt.Errorf("%w: advance to %g, horizon %g", ErrHorizon, t, s.horizon)
	}
	for {
		ev, evOK := s.queue.Peek()
		ex, exOK := s.expiry.Peek()
		rc, rcOK := s.recert.Peek()
		next := math.Inf(1)
		if evOK {
			next = ev.T
		}
		if exOK && ex.T < next {
			next = ex.T
		}
		if rcOK && rc.T < next {
			next = rc.T
		}
		if next > t {
			s.now = t
			return nil
		}
		switch {
		case evOK && ev.T <= next:
			s.queue.Pop()
			s.processEvent(ev)
		case exOK && ex.T <= next:
			s.expiry.Pop()
			s.now = ex.T
			// The curve's domain ends here; drop it from the order.
			if s.list.Contains(ex.Left) {
				if err := s.removeCurve(ex.Left, ChangeExpire); err != nil {
					return err
				}
			}
		default:
			s.recert.Pop()
			if err := s.recertify(rc.Left, rc.T); err != nil {
				return err
			}
		}
	}
}

// processEvent handles one adjacency event per Section 5's three steps:
// report the equivalence, complete the switch (if the curves truly
// cross), and re-examine the new neighborhoods.
func (s *Sweeper) processEvent(ev eventq.Event) {
	a, b := ev.Left, ev.Right
	// Queue discipline should guarantee adjacency; tolerate staleness
	// defensively (it indicates a bug in audit mode).
	if !s.list.Contains(a) || !s.list.Contains(b) {
		if s.audit {
			panic(fmt.Sprintf("core: stale event %v: entry missing", ev))
		}
		return
	}
	if next, ok := s.list.Next(a); !ok || next != b {
		if s.audit {
			panic(fmt.Sprintf("core: stale event %v: not adjacent", ev))
		}
		return
	}
	s.now = ev.T
	s.stats.Events++
	fa, fb := s.curves[a], s.curves[b]
	// Sanity guard: the curves must actually meet at the event time.
	// A materially nonzero gap indicates a spurious root (numerical or
	// stale); re-derive the pair's next event instead of reporting a
	// phantom equality.
	va, vb := fa.Eval(ev.T), fb.Eval(ev.T)
	if gap := math.Abs(va - vb); gap > 1e-6*math.Max(1, math.Max(math.Abs(va), math.Abs(vb))) {
		if s.audit {
			panic(fmt.Sprintf("core: phantom event %v: gap %g", ev, gap))
		}
		s.schedulePair(a, b, ev.T)
		return
	}
	d := s.pairDiff(a, b, ev.T)
	sgAfter := d.SignAfter(ev.T)
	sgBefore := d.SignBefore(ev.T)

	switch {
	case sgAfter == 0:
		// Entering (or inside) a coincidence stretch.
		if sgBefore != 0 {
			s.stats.Coincides++
			s.emit(Change{T: ev.T, Kind: ChangeEqual, A: a, B: b})
		}
		if sep, ok := d.CoincidenceEndAfter(ev.T, s.horizon); ok {
			s.queue.Push(eventq.Event{T: math.Max(sep, ev.T), Left: a, Right: b})
		}
	case sgBefore == 0:
		// Separation after a coincidence stretch.
		s.emit(Change{T: ev.T, Kind: ChangeSeparate, A: a, B: b})
		if sgAfter > 0 {
			// a ends up above b: complete the switch.
			s.swap(a, b, ev.T)
		} else {
			s.schedulePair(a, b, ev.T)
		}
	case sgAfter != sgBefore:
		// Transversal crossing: the paper's two-step order update.
		s.emit(Change{T: ev.T, Kind: ChangeEqual, A: a, B: b})
		s.swap(a, b, ev.T)
	default:
		// Tangency: curves touch and separate in the same order.
		s.emit(Change{T: ev.T, Kind: ChangeEqual, A: a, B: b})
		s.schedulePair(a, b, ev.T)
	}
	s.checkAudit()
}

// swap completes the order switch of adjacent a, b at time t and
// refreshes the three affected adjacencies.
func (s *Sweeper) swap(a, b uint64, t float64) {
	// All three adjacencies around the pair dissolve: recycle their
	// cached differences before the order changes.
	if p, ok := s.list.Prev(a); ok {
		s.releaseDiff(p, a)
	}
	if n, ok := s.list.Next(b); ok {
		s.releaseDiff(b, n)
	}
	s.releaseDiff(a, b)
	if err := s.list.SwapAdjacent(a, b); err != nil {
		panic(fmt.Sprintf("core: swap %d,%d: %v", a, b, err))
	}
	s.emit(Change{T: t, Kind: ChangeSwap, A: a, B: b})
	// New order around the pair: ..., prev, b, a, next, ...
	if prev, ok := s.list.Prev(b); ok {
		// The event keyed by prev pointed at (prev, a); recompute
		// against b. Allow meetings at exactly t for newly-formed
		// adjacencies (multi-curve meetings at one instant).
		s.schedulePair(prev, b, justBefore(t))
	}
	s.schedulePair(b, a, t)
	if next, ok := s.list.Next(a); ok {
		s.schedulePair(a, next, justBefore(t))
	} else {
		s.queue.RemoveByLeft(a)
	}
}

// justBefore nudges t down by slightly more than the root-search
// strictness tolerance, so that meetings at exactly t between
// newly-adjacent curves are still discovered, without re-finding roots
// materially before t.
func justBefore(t float64) float64 {
	d := math.Max(3*poly.RootTol, math.Abs(t)*1e-12)
	return t - d
}

// recertify repositions a curve at a jump discontinuity: the entry is
// removed from the order and re-inserted by its value just after the
// jump, and its neighborhood events are refreshed. Emits a Remove/Insert
// pair so evaluators re-derive the entry's memberships.
func (s *Sweeper) recertify(id uint64, t float64) error {
	if !s.list.Contains(id) {
		return nil
	}
	s.now = t
	f := s.curves[id]
	prev, hasPrev := s.list.Prev(id)
	next, hasNext := s.list.Next(id)
	if hasPrev {
		s.releaseDiff(prev, id)
	}
	if hasNext {
		s.releaseDiff(id, next)
	}
	if err := s.list.Delete(id); err != nil {
		return err
	}
	s.queue.RemoveByLeft(id)
	s.emit(Change{T: t, Kind: ChangeRemove, A: id})
	if hasPrev {
		if hasNext {
			s.schedulePair(prev, next, justBefore(t))
		} else {
			s.queue.RemoveByLeft(prev)
		}
	}
	if err := s.list.Insert(id, s.cmpAt(t)); err != nil {
		return err
	}
	p, hasP := s.list.Prev(id)
	n, hasN := s.list.Next(id)
	if hasP && hasN {
		s.releaseDiff(p, n)
	}
	if hasP {
		s.schedulePair(p, id, justBefore(t))
	}
	if hasN {
		s.schedulePair(id, n, justBefore(t))
	}
	s.scheduleRecert(id, f, t)
	s.emit(Change{T: t, Kind: ChangeInsert, A: id})
	s.checkAudit()
	return nil
}

// AuditOrder verifies that the list order matches the curve values just
// after the current time; O(N log N). Returns nil when consistent.
func (s *Sweeper) AuditOrder() error {
	items := s.list.Items()
	for i := 0; i+1 < len(items); i++ {
		a, b := items[i], items[i+1]
		fa, fb := s.curves[a], s.curves[b]
		va, vb := fa.Eval(s.now), fb.Eval(s.now)
		scale := math.Max(1, math.Max(math.Abs(va), math.Abs(vb)))
		if va-vb > 1e-6*scale {
			return fmt.Errorf("core: order violated at %g: %d (%.9g) before %d (%.9g)",
				s.now, a, va, b, vb)
		}
	}
	return nil
}

func (s *Sweeper) checkAudit() {
	if !s.audit {
		return
	}
	if err := s.AuditOrder(); err != nil {
		panic(err)
	}
	if err := s.list.CheckInvariants(); err != nil {
		panic(err)
	}
}

// Walk visits the current precedence order from least to greatest until
// fn returns false. O(k) for k visited entries.
func (s *Sweeper) Walk(fn func(id uint64) bool) { s.list.Walk(fn) }
