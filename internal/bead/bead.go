// Package bead is the uncertainty layer over sampled trajectories: the
// space-time prism ("bead") model of Othman/Kuijpers/Grimson's alibi
// query, built on the observation that a real position feed is a list
// of timestamped samples, not a continuous curve. Between two
// consecutive samples (t1, x1) and (t2, x2) of an object whose speed
// never exceeds v, the object's possible positions at time t form the
// intersection of two balls
//
//	‖x − x1‖ ≤ v·(t − t1)   and   ‖x − x2‖ ≤ v·(t2 − t),
//
// the classical bead (a double cone in space-time). After the last
// sample of a live object only the first constraint remains — the
// "cap", a cone opening toward the future. A Track is the chain of
// beads its samples induce; the package answers two questions about
// tracks exactly, by closed-form analysis of the ball systems rather
// than by sampling:
//
//   - Alibi(a, b, lo, hi): could objects a and b have met during
//     [lo, hi]? (Is there a time t and a point x inside both beads?)
//   - Within(dim, q, r, lo, hi), asked of a track: when could the
//     object have been within distance r of the point q?
//
// The decision procedure lives in kernel.go; oracle.go carries a
// deliberately-dumb certified approximation used by the differential
// harness to cross-check it.
package bead

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// Sample is one timestamped position observation.
type Sample struct {
	T float64
	X geom.Vec
}

// Track is a chronological sample list plus the object's declared
// maximum speed. If live, the track's uncertainty extends past the last
// sample (the cap bead); a terminated track ends at its final sample.
// A track is immutable: its bead chain is laid out once, when the track
// is made, and every query walks the same chain. A track made by Extend
// shares the samples and beads of the track it extends — they sit in
// the same arrays, the longer track's slices simply reach further — so
// growing a track costs what is added to it.
type Track struct {
	dim     int
	samples []Sample
	vmax    float64
	live    bool
	// chain holds one bead per pair of consecutive samples. What
	// follows the last sample — a live track's cap, or the single
	// instant of a one-sample terminated track; other terminated
	// tracks have none — is tail, kept out of chain because it is the
	// one bead an extension replaces.
	chain []segment
	tail  segment
	// claimed is set by the first track grown from this one: that track
	// appends into the spare capacity behind samples and chain, which
	// no reader of this track looks at. A second one must copy.
	claimed atomic.Bool
}

// NewTrack builds a track from samples in strictly increasing time
// order. vmax is the declared maximum speed; a recorded leg that
// requires a higher average speed than vmax is treated as evidence the
// declaration was conservative, and that leg's bead uses the required
// speed instead (so the recorded motion itself is always possible).
func NewTrack(vmax float64, live bool, samples []Sample) (*Track, error) {
	if math.IsNaN(vmax) || math.IsInf(vmax, 0) || vmax < 0 {
		return nil, fmt.Errorf("bead: bad vmax %g", vmax)
	}
	return (&Track{vmax: vmax}).grow(live, samples)
}

// grow is the one routine that lays a bead chain: it returns the track
// that holds tr's samples followed by more, under tr's speed bound. tr
// may be the empty track, which is how every track starts, so a track
// grown in steps and a track built from all its samples at once come
// out of the same code. tr itself is left as it was.
func (tr *Track) grow(live bool, more []Sample) (*Track, error) {
	have := len(tr.samples)
	if have+len(more) == 0 {
		return nil, fmt.Errorf("bead: track needs at least one sample")
	}
	dim, prev := tr.dim, math.Inf(-1)
	if have > 0 {
		prev = tr.samples[have-1].T
	} else if dim = more[0].X.Dim(); dim == 0 {
		return nil, fmt.Errorf("bead: zero-dimensional sample")
	}
	for k, s := range more {
		i := have + k
		if math.IsNaN(s.T) || math.IsInf(s.T, 0) {
			return nil, fmt.Errorf("bead: sample %d has non-finite time %g", i, s.T)
		}
		if s.X.Dim() != dim {
			return nil, fmt.Errorf("bead: sample %d has dim %d, track dim %d", i, s.X.Dim(), dim)
		}
		for _, c := range s.X {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("bead: sample %d has non-finite coordinate %g", i, c)
			}
		}
		if !(s.T > prev) {
			return nil, fmt.Errorf("bead: sample times not strictly increasing at %d (%g after %g)",
				i, s.T, prev)
		}
		prev = s.T
	}

	samples, chain := tr.samples, tr.chain
	if !tr.claimed.CompareAndSwap(false, true) {
		samples, chain = slices.Clip(samples), slices.Clip(chain)
	}
	nt := &Track{dim: dim, samples: append(samples, more...), vmax: tr.vmax, live: live}
	n := len(nt.samples)
	legs := n - 1 - len(chain)
	chain = slices.Grow(chain, legs)
	balls := make([]ball, 0, 2*legs+1) // the new beads' constraints, one backing array
	for i := len(chain); i+1 < n; i++ {
		a, b := nt.samples[i], nt.samples[i+1]
		v := nt.vmax
		// Effective speed: the recorded leg must stay reachable.
		if req := b.X.Dist(a.X) / (b.T - a.T); req > v {
			v = req
		}
		balls = append(balls,
			ball{c: a.X, ra: v, rb: -v * a.T},
			ball{c: b.X, ra: -v, rb: v * b.T})
		chain = append(chain, segment{t0: a.T, t1: b.T, cons: balls[len(balls)-2 : len(balls) : len(balls)]})
	}
	nt.chain = chain
	// A single-sample live track is just a cap; a single-sample
	// terminated track is a degenerate bead pinning the object to the
	// one instant it existed.
	last := nt.samples[n-1]
	switch {
	case live:
		balls = append(balls, ball{c: last.X, ra: nt.vmax, rb: -nt.vmax * last.T})
		nt.tail = segment{t0: last.T, t1: math.Inf(1), cons: balls[len(balls)-1:]}
	case n == 1:
		balls = append(balls, ball{c: last.X, ra: 0, rb: 0})
		nt.tail = segment{t0: last.T, t1: last.T, cons: balls[len(balls)-1:]}
	}
	return nt, nil
}

// knots reads the samples a trajectory induces from piece `from` on:
// each piece's start and, for a terminated trajectory, the termination
// instant. live reports that the trajectory is not terminated.
func knots(traj trajectory.Trajectory, from int) (samples []Sample, live bool) {
	n := traj.NumPieces()
	samples = make([]Sample, 0, n-from+1)
	for i := from; i < n; i++ {
		pc := traj.PieceAt(i)
		samples = append(samples, Sample{T: pc.Start, X: pc.At(pc.Start)})
	}
	live = !traj.IsTerminated()
	if !live {
		last := traj.PieceAt(n - 1)
		samples = append(samples, Sample{T: last.End, X: last.At(last.End)})
	}
	return samples, live
}

// FromTrajectory reinterprets an exact piecewise-linear trajectory as a
// sampled track: the knots (piece starts, plus the termination instant)
// become the samples, and everything between them is uncertainty
// governed by vmax. A non-terminated trajectory yields a live track.
func FromTrajectory(traj trajectory.Trajectory, vmax float64) (*Track, error) {
	if !traj.IsDefined() {
		return nil, fmt.Errorf("bead: empty trajectory")
	}
	samples, live := knots(traj, 0)
	return NewTrack(vmax, live, samples)
}

// Extend returns the track of traj, given that tr is the track of an
// earlier state of the same object under the same speed bound: the
// samples traj has beyond the ones tr holds are laid behind tr's chain,
// which the two tracks then share. The result equals
// FromTrajectory(traj, tr.Vmax()) in every sample and bead. ok is false
// when traj does not continue tr — tr is terminated, or the last sample
// they should share differs in a single bit — and the caller builds the
// track from scratch.
func (tr *Track) Extend(traj trajectory.Trajectory) (nt *Track, ok bool) {
	n := len(tr.samples)
	if !tr.live || traj.NumPieces() < n {
		return nil, false
	}
	pc, last := traj.PieceAt(n-1), tr.samples[n-1]
	if math.Float64bits(pc.Start) != math.Float64bits(last.T) || !sameBits(pc.At(pc.Start), last.X) {
		return nil, false
	}
	more, live := knots(traj, n)
	nt, err := tr.grow(live, more)
	return nt, err == nil
}

// sameBits reports whether u and v hold the same floats bit for bit.
func sameBits(u, v geom.Vec) bool {
	if len(u) != len(v) {
		return false
	}
	for i := range u {
		if math.Float64bits(u[i]) != math.Float64bits(v[i]) {
			return false
		}
	}
	return true
}

// Dim returns the track's spatial dimension.
func (tr *Track) Dim() int { return tr.dim }

// Vmax returns the track's declared maximum speed.
func (tr *Track) Vmax() float64 { return tr.vmax }

// Samples returns a copy of the track's samples.
func (tr *Track) Samples() []Sample {
	out := make([]Sample, len(tr.samples))
	copy(out, tr.samples)
	return out
}

// Start returns the first sample time — before it the object does not
// exist and intersects nothing.
func (tr *Track) Start() float64 { return tr.samples[0].T }

// End returns the last sample time for a terminated track and +Inf for
// a live one (the cap is unbounded).
func (tr *Track) End() float64 {
	if tr.live {
		return math.Inf(1)
	}
	return tr.samples[len(tr.samples)-1].T
}

// segment is one bead of the chain: a time extent and the ball
// constraints that confine the object inside it. Chain beads carry two
// balls (growing from the earlier sample, shrinking toward the later
// one); the cap carries only the growing one.
type segment struct {
	t0, t1 float64
	cons   []ball
}

// numSegs and segAt present the chain and the tail as one list of
// beads in time order.
func (tr *Track) numSegs() int {
	if tr.live || len(tr.samples) == 1 {
		return len(tr.chain) + 1
	}
	return len(tr.chain)
}

func (tr *Track) segAt(i int) segment {
	if i < len(tr.chain) {
		return tr.chain[i]
	}
	return tr.tail
}

// firstSegTo returns the index of the first bead that ends at or after
// t — where a walk over the beads meeting a window that starts at t
// begins — or numSegs() when every bead ends before t. The chain's end
// times ascend, so it binary-searches them, and when every chain bead
// ends before t the answer is the tail, if there is one and it reaches
// t.
func (tr *Track) firstSegTo(t float64) int {
	lo, hi := 0, len(tr.chain)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tr.chain[m].t1 >= t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(tr.chain) && lo < tr.numSegs() && !(tr.tail.t1 >= t) {
		lo++
	}
	return lo
}

// SegBox is the conservative space-time bounding box of one chain bead:
// at every instant of [T0, T1], every position consistent with the bead
// lies inside [Min, Max]. The box is the midpoint ball's: summing the
// bead's two constraints ‖x−x1‖ ≤ v·(t−t1) and ‖x−x2‖ ≤ v·(t2−t) gives
// ‖x − (x1+x2)/2‖ ≤ v·(t2−t1)/2 for every feasible (t, x). The box is
// inflated by a margin three orders of magnitude above the kernel's
// boundary tolerance, so a box miss is a proof the kernel would reject
// the window too (see boxPad).
type SegBox struct {
	T0, T1   float64
	Min, Max geom.Vec
}

// boxPad is the conservative inflation broad-phase geometry carries on
// the track side; query-side geometry adds its own, relative to its own
// coordinate scale (see internal/query). The kernel accepts boundary
// contact within relEps × (joint problem scale), and the joint scale is
// bounded by the sum of the two sides' scales, so the combined
// inflation — pruneMargin = 1000 × relEps per side — always dominates
// the kernel's slack.
func boxPad(scale float64) float64 { return pruneMargin * (1 + scale) }

// maxAbs returns the largest coordinate magnitude of v.
func maxAbs(v geom.Vec) float64 {
	m := 0.0
	for _, c := range v {
		if a := math.Abs(c); a > m {
			m = a
		}
	}
	return m
}

// ChainBoxes returns one SegBox per chain bead from bead `from` on, in
// time order; ChainBoxes(0) is the whole chain, and the track Extend
// made of a track with k boxes adds ChainBoxes(k). A live track's cap is
// unbounded and deliberately not boxed — Cap exposes it for a
// closed-form side test. A single-sample terminated track yields one
// degenerate box pinning the object to its only recorded instant.
func (tr *Track) ChainBoxes(from int) []SegBox {
	n := len(tr.samples)
	out := make([]SegBox, 0, max(n-from, 0))
	box := func(t0, t1 float64, mid geom.Vec, pad float64) SegBox {
		min := make(geom.Vec, tr.dim)
		max := make(geom.Vec, tr.dim)
		for d := 0; d < tr.dim; d++ {
			min[d] = mid[d] - pad
			max[d] = mid[d] + pad
		}
		return SegBox{T0: t0, T1: t1, Min: min, Max: max}
	}
	for i := from; i+1 < n; i++ {
		a, b := tr.samples[i], tr.samples[i+1]
		v := tr.chain[i].cons[0].ra // the chain's effective speed for this leg
		reach := v * (b.T - a.T)
		mid := a.X.Add(b.X).Scale(0.5)
		out = append(out, box(a.T, b.T, mid, reach/2+boxPad(maxAbs(mid)+reach)))
	}
	if !tr.live && n == 1 && from == 0 {
		last := tr.samples[0]
		out = append(out, box(last.T, last.T, last.X, boxPad(maxAbs(last.X))))
	}
	return out
}

// Cap is a live track's trailing bead: from time T on, the object can
// be anywhere within V·(t−T) of C. Its space-time extent is unbounded,
// so the broad phase keeps caps out of the box index and tests them in
// closed form instead (Within): the cap can reach a query ball (center
// q, radius dist) within [lo, hi] only if hi ≥ T and
// ‖q−C‖ ≤ dist + V·(hi−T), up to the same conservative margins the
// boxes carry. When the cap is the only bead of its track that meets
// the window (T < lo), it can often answer the whole possibly-within
// question as well — the instant the growing ball first touches the
// query ball is one division — and Within does, with the kernel's
// bits. A Cap is made by Track.Cap, which works out the magnitude of C
// its margin needs once.
type Cap struct {
	T    float64
	C    geom.Vec
	V    float64
	cmag float64 // maxAbs(C)
}

// Cap returns the live cap, if the track has one.
func (tr *Track) Cap() (Cap, bool) {
	if !tr.live {
		return Cap{}, false
	}
	last := tr.samples[len(tr.samples)-1]
	return Cap{T: last.T, C: last.X, V: tr.vmax, cmag: maxAbs(last.X)}, true
}

// Pad is the conservative inflation a broad phase must add around
// geometry of the given coordinate scale for a miss to be a proof the
// exact kernel would reject the pair too. Track-side boxes already
// carry it (ChainBoxes); query-side geometry applies it to its own
// scale.
func Pad(scale float64) float64 { return boxPad(scale) }

// reaches reports whether the cap could place its object within dist of
// a point d = ‖q − C‖ away at some instant of a window ending at hi,
// conservatively (false is a proof, true means "ask further"). The
// cap's reachable set at time t is the ball of radius V·(t−T) around
// C, largest at t = hi; before T the object is covered by the chain
// boxes instead, and a window entirely before T cannot see the cap.
// qpad is the query side's inflation, Pad(max_k |q_k| + dist): a query
// testing every cap works it out once.
func (c Cap) reaches(d, dist, qpad, hi float64) bool {
	if hi < c.T {
		return false
	}
	grow := c.V * (hi - c.T)
	// The kernel works the radius out as V·t − V·T, and the rounding of
	// those two products grows with V·|t| and V·|T|, not with the
	// radius: at t and T near 1e12 it outgrows both pads. The last term
	// covers it; every t the kernel asks lies between T and hi.
	margin := Pad(c.cmag+grow) + qpad + 0x1p-48*c.V*(math.Abs(hi)+math.Abs(c.T))
	return d <= dist+grow+margin
}

// CapQuery is a possibly-within question — within dist of q during
// [lo, hi] — as a broad phase puts it to every live cap (Cap.Within),
// with what the query side contributes to each test worked out once.
// It is made by NewCapQuery, for a question Within(dim, q, dist, lo, hi)
// has accepted.
type CapQuery struct {
	q            geom.Vec
	dist, lo, hi float64
	pad          float64 // Pad(maxAbs(q) + dist), reaches' qpad
	scale        float64 // consScale of the query ball, as the kernel walk has it
}

// NewCapQuery returns the question "within dist of q during [lo, hi]"
// for Cap.Within. It checks nothing: the question must be one
// Within(dim, q, dist, lo, hi) accepts.
func NewCapQuery(q geom.Vec, dist, lo, hi float64) CapQuery {
	qcons := [1]ball{{c: q, ra: 0, rb: dist}}
	return CapQuery{q: q, dist: dist, lo: lo, hi: hi,
		pad: Pad(maxAbs(q) + dist), scale: consScale(qcons[:], lo, hi)}
}

// CapVerdict is what Cap.Within found out about a cap.
type CapVerdict uint8

const (
	// CapMiss: the cap cannot reach the query ball within the window.
	// It makes no candidate of its object.
	CapMiss CapVerdict = iota
	// CapKernel: the object needs the kernel walk of its track. Either
	// a chain bead meets the window too (T ≥ lo), or the answer lies
	// too close to a tolerance boundary of the kernel, or the
	// magnitudes are too large, for the closed form to vouch for its
	// bits.
	CapKernel
	// CapPruned: the cap is the object's only bead in the window, and
	// the kernel walk's pre-test rejects that window: no instant.
	CapPruned
	// CapDecided: the cap is the object's only bead in the window, and
	// the returned interval is the one the kernel walk finds, bit for
	// bit.
	CapDecided
)

// Within answers cq for this cap's object where that needs no kernel.
// When the last sample comes before the window (T < lo), the walk of
// Track.within meets one window, [lo, hi], and hands it two balls: the
// cap, radius V·(t − T) around C, and the query ball, radius r around
// q, d = ‖q − C‖ apart. Within repeats that walk's arithmetic on them:
//
//   - the window's scale, eps and pruneMargin·scale, from the same
//     balls through the same consScale;
//   - disjoint's cross-pair test, whose verdict is CapPruned;
//   - d + margin ≤ r + rad(lo): both window ends are feasible, and
//     interval returns the window itself;
//   - r + rad(lo) + margin < d < r + rad(hi) − margin: lo is
//     infeasible and hi feasible, and the first feasible candidate of
//     interval's scan is the external tangency r + rad(t) = d, which
//     interval appends as −((rb + r) − d)/V, rb = −V·T. Every candidate
//     before it lies at or below lo, every midpoint before it misses
//     by half the margin, and at the root itself the two balls touch
//     up to rounding far below eps — which feasibleAt accepts.
//
// Everything else goes to the kernel (CapKernel): the margin band
// around either case's boundary, where the kernel's own rounding
// decides; a window end at ±0, which interval sorts by sign; V ≤ 1e-300,
// which has no tangency root; and magnitudes whose rounding could
// approach eps — V·|T| or V·|hi| above 2^40·eps, or a scale past 1e300.
func (c Cap) Within(cq *CapQuery) (Interval, CapVerdict) {
	d := cq.q.Dist(c.C)
	if !c.reaches(d, cq.dist, cq.pad, cq.hi) {
		return Interval{}, CapMiss
	}
	if !(c.T < cq.lo) {
		return Interval{}, CapKernel
	}
	// The window of the walk: w0 = max(T, lo) and w1 = min(+Inf, hi).
	w0, w1 := cq.lo, cq.hi
	cb := [1]ball{{c: c.C, ra: c.V, rb: -c.V * c.T}} // Track.grow's cap ball
	scale := math.Max(consScale(cb[:], w0, w1), cq.scale)
	eps := relEps * scale
	margin := pruneMargin * scale
	// disjoint: the query ball's radius is dist at every instant.
	r0, r1 := cb[0].rad(w0), cb[0].rad(w1)
	reach, rq := math.Max(r0, r1), cq.dist
	if reach < -margin || d > math.Max(0, reach)+math.Max(0, rq)+margin {
		return Interval{}, CapPruned
	}
	//modlint:allow floatcmp -- exact: only zero has two encodings
	if w0 == 0 || w1 == 0 || !(c.V > 1e-300) || !(scale < 1e300) ||
		!(c.V*math.Max(math.Abs(c.T), math.Abs(w1)) <= 0x1p40*eps) {
		return Interval{}, CapKernel
	}
	switch {
	case d+margin <= rq+r0:
		return Interval{Lo: w0, Hi: w1}, CapDecided
	case rq+r0+margin < d && d < rq+r1-margin:
		// appendLinearRoot of the pair's external tangency: its slope
		// is V + 0 = V.
		b := cb[0].rb + rq - d
		return Interval{Lo: -b / c.V, Hi: w1}, CapDecided
	}
	return Interval{}, CapKernel
}
