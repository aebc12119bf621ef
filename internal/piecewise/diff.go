package piecewise

// PairDiff is a cached difference curve f - g for one sweep adjacency.
// schedulePair re-derives the next event of the same adjacent pair many
// times as the sweep advances; the lazy walkers of lazy.go recompute
// pa.P.Sub(pb.P) — one or two allocations — on every call. PairDiff
// materializes those merged-breakpoint difference segments once,
// incrementally and in recycled storage, and answers the same four
// queries (FirstMeetingAfter, SignAfter, SignBefore, CoincidenceEndAfter)
// with zero steady-state allocations.
//
// Equivalence contract: every query result is bit-identical to the lazy
// walker's, because each materialized segment is exactly the lockstep
// walk's combo — Start = max(pa.Start, pb.Start), End = min(pa.End,
// pb.End), P = pa.P - pb.P via poly.SubInto (bit-identical to Sub) —
// and the query methods replicate the walkers' control flow over those
// segments. At the two edges of the overlap the walkers' one-sided signs
// read the piece of one curve that lies before the other curve starts
// or after it ends, which no segment holds; there SignBefore and
// SignAfter ask the walker itself (an allocation, at those edges only).
// The one restriction is the build origin: a cache built from time
// `from` only materializes combos from the segment containing `from`
// onward, so queries are answerable only for times its origin covers
// (see Covers). The Sweeper rebuilds on a Covers miss.
// TestPairDiffMatchesLazyWalkers holds the contract.

import (
	"math"
	"sort"

	"repro/internal/poly"
)

// PairDiff caches the difference curve of one adjacency. The zero value
// is empty and invalid; Reset builds it. Not safe for concurrent use —
// it lives inside a single sweep.
type PairDiff struct {
	f, g   Func
	lo, hi float64 // overlap of the two domains
	origin float64 // start of the first materialized segment
	valid  bool    // false: no domain overlap (queries answer "none")
	done   bool    // no further segments can be materialized

	pieces []Piece // materialized merged difference segments
	ia, ib int     // cursors: the piece pair of the NEXT segment
	nextT  float64 // start of the next unmaterialized segment
}

// Reset (re)builds the cache for the pair (f, g), materializing lazily
// from the combo containing max(from, lo). Piece storage — both the
// segment slice and each segment's polynomial — is recycled.
func (d *PairDiff) Reset(f, g Func, from float64) {
	d.f, d.g = f, g
	d.pieces = d.pieces[:0]
	d.valid, d.done = false, false
	flo, fhi := f.Domain()
	glo, ghi := g.Domain()
	d.lo = math.Max(flo, glo)
	d.hi = math.Min(fhi, ghi)
	if math.IsNaN(d.lo) || math.IsNaN(d.hi) {
		d.done = true
		return
	}
	t := math.Max(from, d.lo)
	if t > d.hi {
		t = d.hi
	}
	d.ia = f.pieceIndexAt(t)
	d.ib = g.pieceIndexAt(t)
	if d.ia < 0 || d.ib < 0 {
		d.done = true
		return
	}
	d.valid = true
	// The first segment starts at the true merged boundary, exactly as
	// the lazy walk's first combo does (its Start is max of the two
	// containing pieces' starts, never the query time).
	d.origin = math.Max(f.pieces[d.ia].Start, g.pieces[d.ib].Start)
	d.nextT = d.origin
}

// Covers reports whether queries at times >= t are answerable from this
// cache exactly as the lazy walkers would answer them. A full build
// (origin at the domain overlap's start) covers everything; a truncated
// build covers t strictly past origin + boundTol, because pieceIndexAt's
// boundTol slack and SignBefore's step-back rule can otherwise reach the
// combo before the origin.
func (d *PairDiff) Covers(t float64) bool {
	if !d.valid {
		return true // no overlap: every query answers "none" regardless
	}
	return d.origin <= d.lo || t > d.origin+boundTol
}

// materializeNext appends the next merged difference segment, returning
// false when none remains. It replicates the lazy walkers' advance: the
// segment ends at min(pa.End, pb.End, hi); each curve whose piece ends
// there advances if it has a successor; exhaustion of both ends the walk.
func (d *PairDiff) materializeNext() bool {
	if d.done {
		return false
	}
	pa := d.f.pieces[d.ia]
	pb := d.g.pieces[d.ib]
	segEnd := math.Min(math.Min(pa.End, pb.End), d.hi)
	d.pieces = appendDiffPiece(d.pieces, d.nextT, segEnd, pa.P, pb.P)
	if segEnd >= d.hi {
		d.done = true
		return true
	}
	if pa.End <= segEnd && d.ia+1 < len(d.f.pieces) {
		d.ia++
	}
	if pb.End <= segEnd && d.ib+1 < len(d.g.pieces) {
		d.ib++
	}
	if d.f.pieces[d.ia].End <= segEnd && d.g.pieces[d.ib].End <= segEnd {
		d.done = true
	}
	d.nextT = segEnd
	return true
}

// appendDiffPiece appends the segment [start, end] with polynomial a - b,
// reusing a previously-truncated slot's polynomial storage when the
// slice has spare capacity.
func appendDiffPiece(ps []Piece, start, end float64, a, b poly.Poly) []Piece {
	n := len(ps)
	if n < cap(ps) {
		ps = ps[:n+1]
		ps[n].Start, ps[n].End = start, end
		ps[n].P = poly.SubInto(ps[n].P[:0], a, b)
		return ps
	}
	return append(ps, Piece{Start: start, End: end, P: poly.SubInto(nil, a, b)})
}

// ensure materializes segments until index i exists; false when the walk
// ends first.
func (d *PairDiff) ensure(i int) bool {
	for len(d.pieces) <= i {
		if !d.materializeNext() {
			return false
		}
	}
	return true
}

// indexAt locates the materialized segment containing t (materializing
// as needed), mirroring Func.pieceIndexAt: boundTol slack at the domain
// edges, and at a shared boundary the segment starting at t governs.
// Returns -1 when t is outside [origin - boundTol, hi + boundTol].
func (d *PairDiff) indexAt(t float64) int {
	if len(d.pieces) == 0 && !d.materializeNext() {
		return -1
	}
	if t < d.pieces[0].Start-boundTol || t > d.hi+boundTol {
		return -1
	}
	for d.pieces[len(d.pieces)-1].End < t && !d.done {
		if !d.materializeNext() {
			break
		}
	}
	n := len(d.pieces)
	i := sort.Search(n, func(i int) bool { return d.pieces[i].End >= t })
	if i == n {
		i = n - 1
	}
	if t >= d.pieces[i].End && i == n-1 && d.ensure(n) {
		n++
	}
	if i+1 < n && t >= d.pieces[i].End {
		i++
	}
	return i
}

// FirstMeetingAfter is piecewise.FirstMeetingAfter over the cached pair:
// the earliest time s in (after, hi] at which f and g meet, with
// coincide reporting an identical stretch beginning at s.
func (d *PairDiff) FirstMeetingAfter(after, hi float64) (s float64, coincide, ok bool) {
	if !d.valid {
		return 0, false, false
	}
	end := math.Min(d.hi, hi)
	t := math.Max(after, d.lo)
	if t > end {
		return 0, false, false
	}
	i := d.indexAt(t)
	if i < 0 {
		return 0, false, false
	}
	for {
		pc := d.pieces[i]
		segEnd := math.Min(pc.End, end)
		if pc.P.IsZero() {
			start := math.Max(t, pc.Start)
			return math.Max(start, after), true, true
		}
		segLo := math.Max(after, pc.Start)
		if r, found := pc.P.FirstRootAfter(segLo, segEnd); found && r > after {
			return r, false, true
		}
		if segEnd >= end {
			return 0, false, false
		}
		t = segEnd
		if !d.ensure(i + 1) {
			return 0, false, false
		}
		i++
	}
}

// SignAfter is piecewise.SignDiffAfter over the cached pair: the sign of
// (f - g) on (t, t+delta). At a boundary the segment starting at t
// governs.
func (d *PairDiff) SignAfter(t float64) int {
	if !d.valid {
		return 0
	}
	i := d.indexAt(t)
	if i < 0 {
		return 0
	}
	if t >= d.pieces[i].End-boundTol {
		if !d.ensure(i + 1) {
			return SignDiffAfter(d.f, d.g, t)
		}
		i++
	}
	return d.pieces[i].P.SignAfter(t)
}

// SignBefore is piecewise.SignDiffBefore over the cached pair: the sign
// of (f - g) on (t-delta, t). At a boundary the segment ending at t
// governs.
func (d *PairDiff) SignBefore(t float64) int {
	if !d.valid {
		return 0
	}
	i := d.indexAt(t)
	if i < 0 {
		return 0
	}
	if t <= d.pieces[i].Start+boundTol {
		if i == 0 {
			return SignDiffBefore(d.f, d.g, t)
		}
		i--
	}
	return d.pieces[i].P.SignBefore(t)
}

// CoincidenceEndAfter is piecewise.CoincidenceEndAfter over the cached
// pair: the first time strictly past t at which f and g stop being
// identical, given that they coincide at t.
func (d *PairDiff) CoincidenceEndAfter(t, hi float64) (float64, bool) {
	if !d.valid {
		return 0, false
	}
	end := math.Min(d.hi, hi)
	i := d.indexAt(t)
	if i < 0 {
		return 0, false
	}
	cur := t
	for {
		pc := d.pieces[i]
		segEnd := math.Min(pc.End, end)
		if !pc.P.IsZero() {
			return math.Max(cur, t), true
		}
		if segEnd >= end {
			return 0, false
		}
		cur = segEnd
		if !d.ensure(i + 1) {
			return 0, false
		}
		i++
	}
}
