package bead

// The two exact queries. Both reduce every question to bead-chain
// windows handed to the closed-form kernel (kernel.go): the alibi query
// walks the two tracks' chains with a two-pointer merge so only
// time-overlapping bead pairs are examined, and PossiblyWithin runs
// each bead of a single track against a static query ball.

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Result is the outcome of an exact alibi query.
type Result struct {
	// Possible reports whether the two objects could have met inside
	// the query window. False is a proof of alibi: no consistent pair
	// of movements brings them to the same point at the same time.
	Possible bool
	// At is the earliest instant a meeting is possible. Only
	// meaningful when Possible.
	At float64
	// Checked counts the bead-pair windows the decision examined —
	// surfaced so tests can pin the merge-walk's pruning behavior.
	Checked int
	// Pruned counts the examined windows rejected by the cheap
	// bounding-ball distance test without invoking the kernel. Always
	// Pruned <= Checked; the answer never depends on it.
	Pruned int
}

// pruneMargin scales the broad-phase rejection slack: a window (or a
// whole candidate, in the query-layer index) is discarded only when
// infeasibility holds by a margin three orders of magnitude wider than
// the kernel's boundary-acceptance tolerance (relEps), so a pruned
// window can never be one the kernel would have accepted at a boundary.
const pruneMargin = 1e-6

func checkWindow(lo, hi float64) error {
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return fmt.Errorf("bead: non-finite query window [%g, %g]", lo, hi)
	}
	if lo > hi {
		return fmt.Errorf("bead: inverted query window [%g, %g]", lo, hi)
	}
	return nil
}

// Alibi decides exactly whether the objects of tracks a and b could
// have been at the same point at the same time during [lo, hi]. The
// decision is closed-form — no sampling, no tolerance beyond the
// kernel's relative epsilon on boundary contact.
//
// The walk visits bead pairs in nondecreasing window-start order
// (within one track consecutive beads share their boundary instant,
// so advancing the earlier-ending chain never moves a window start
// backward). The first feasible window therefore yields the globally
// earliest meeting time, and the walk stops there.
func Alibi(a, b *Track, lo, hi float64) (Result, error) {
	if a == nil || b == nil {
		return Result{}, fmt.Errorf("bead: nil track")
	}
	if a.Dim() != b.Dim() {
		return Result{}, fmt.Errorf("bead: dimension mismatch %d vs %d", a.Dim(), b.Dim())
	}
	if err := checkWindow(lo, hi); err != nil {
		return Result{}, err
	}
	res := Result{}
	// A bead that ends before lo is in no window; the merge from the
	// first bead of each chain that reaches lo visits the windows the
	// merge from the first samples does, in the same order.
	i, j := a.firstSegTo(lo), b.firstSegTo(lo)
	var scratch windowScratch
	for i < a.numSegs() && j < b.numSegs() {
		sa, sb := a.segAt(i), b.segAt(j)
		w0 := math.Max(math.Max(sa.t0, sb.t0), lo)
		if w0 > hi {
			break // every later pair starts even later
		}
		w1 := math.Min(math.Min(sa.t1, sb.t1), hi)
		if w0 <= w1 {
			res.Checked++
			// Bounding-ball pre-reject: most bead pairs of far-apart
			// tracks die here, before the kernel's candidate enumeration.
			// A pruned window is provably infeasible (disjoint's margin
			// dominates the kernel's tolerance), so skipping it cannot
			// change the earliest-meeting answer.
			w := scratch.window(sa.cons, sb.cons, consScale(sb.cons, w0, w1), w0, w1)
			if w.disjoint() {
				res.Pruned++
			} else if t0, _, ok := w.interval(); ok {
				res.Possible = true
				res.At = t0
				return res, nil
			}
		}
		// Advance the chain whose bead ends first; on a tie both ended
		// at the same instant and either order visits the same pairs.
		if sa.t1 <= sb.t1 {
			i++
		} else {
			j++
		}
	}
	return res, nil
}

// Interval is a closed time interval.
type Interval struct {
	Lo, Hi float64
}

// PWStats counts the work one possibly-within evaluation did: windows
// overlapping the query interval, how many the bounding-ball pre-test
// rejected, and how many reached the closed-form kernel.
type PWStats struct {
	Windows int
	Pruned  int
	Kernel  int
}

// Within validates the question "when could an object have been within
// dist of the point q during [lo, hi]?" for tracks of dimension dim,
// and returns the function that answers it for one track: the exact set
// of such instants as a sorted list of disjoint closed intervals,
// appended to dst, plus the work counters the observability layer
// records. Within each bead the feasible set is a single interval (the
// distance condition is one more ball constraint, and the system stays
// jointly convex); intervals meeting at a bead boundary are merged. A
// query over many tracks validates once, here, so a bad question is
// refused whatever the tracks are — or whether there are any — and
// hands every track the same dst[:0], so it allocates for its longest
// list and not once per object. The returned function may be called
// from several goroutines.
func Within(dim int, q geom.Vec, dist, lo, hi float64) (func(tr *Track, dst []Interval) ([]Interval, PWStats), error) {
	if err := checkWithin(dim, q, dist, lo, hi); err != nil {
		return nil, err
	}
	qcons := []ball{{c: q.Clone(), ra: 0, rb: dist}}
	qscale := consScale(qcons, lo, hi)
	return func(tr *Track, dst []Interval) ([]Interval, PWStats) { return tr.within(dst, qcons, qscale, lo, hi) }, nil
}

// checkWithin is the validation of a possibly-within question.
func checkWithin(dim int, q geom.Vec, dist, lo, hi float64) error {
	if q.Dim() != dim {
		return fmt.Errorf("bead: query point dim %d, track dim %d", q.Dim(), dim)
	}
	for _, c := range q {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("bead: non-finite query coordinate %g", c)
		}
	}
	if math.IsNaN(dist) || math.IsInf(dist, 0) || dist < 0 {
		return fmt.Errorf("bead: bad query distance %g", dist)
	}
	return checkWindow(lo, hi)
}

// PossiblyWithinStats asks Within's question of this one track. The
// pre-test the counters report only discards windows that are provably
// infeasible by a margin wider than the kernel's own tolerance.
func (tr *Track) PossiblyWithinStats(q geom.Vec, dist, lo, hi float64) ([]Interval, PWStats, error) {
	if err := checkWithin(tr.dim, q, dist, lo, hi); err != nil {
		return nil, PWStats{}, err
	}
	qcons := [1]ball{{c: q, ra: 0, rb: dist}}
	ivs, st := tr.within(nil, qcons[:], consScale(qcons[:], lo, hi), lo, hi)
	return ivs, st, nil
}

// within walks the chain against the one-ball system qcons over a
// validated window and appends the track's intervals to dst, whose own
// elements it neither reads nor merges into. qscale is consScale(qcons)
// over any window: the query ball's radius is constant. It allocates
// what the append grows dst by and nothing else.
func (tr *Track) within(dst []Interval, qcons []ball, qscale, lo, hi float64) ([]Interval, PWStats) {
	var st PWStats
	var scratch windowScratch
	first := len(dst)
	for i, n := tr.firstSegTo(lo), tr.numSegs(); i < n; i++ {
		s := tr.segAt(i)
		if s.t0 > hi {
			break // every later bead starts even later
		}
		// s ends at or after lo and starts by hi, so the window is not
		// empty.
		w0 := math.Max(s.t0, lo)
		w1 := math.Min(s.t1, hi)
		st.Windows++
		w := scratch.window(s.cons, qcons, qscale, w0, w1)
		if w.disjoint() {
			st.Pruned++
			continue
		}
		st.Kernel++
		a, b, ok := w.interval()
		if !ok {
			continue
		}
		if n := len(dst); n > first && a <= dst[n-1].Hi+1e-12*math.Max(1, math.Abs(a)) {
			if b > dst[n-1].Hi {
				dst[n-1].Hi = b
			}
			continue
		}
		dst = append(dst, Interval{Lo: a, Hi: b})
	}
	return dst, st
}
