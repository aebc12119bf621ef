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
// A track is immutable: its bead chain is laid out once, at
// construction, and every query walks the same chain.
type Track struct {
	dim     int
	samples []Sample
	vmax    float64
	live    bool
	segs    []segment
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
	if len(samples) == 0 {
		return nil, fmt.Errorf("bead: track needs at least one sample")
	}
	dim := samples[0].X.Dim()
	if dim == 0 {
		return nil, fmt.Errorf("bead: zero-dimensional sample")
	}
	for i, s := range samples {
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
		if i > 0 && !(s.T > samples[i-1].T) {
			return nil, fmt.Errorf("bead: sample times not strictly increasing at %d (%g after %g)",
				i, s.T, samples[i-1].T)
		}
	}
	cp := make([]Sample, len(samples))
	copy(cp, samples)
	tr := &Track{dim: dim, samples: cp, vmax: vmax, live: live}
	tr.segs = tr.chain()
	return tr, nil
}

// FromTrajectory reinterprets an exact piecewise-linear trajectory as a
// sampled track: the knots (piece starts, plus the termination instant)
// become the samples, and everything between them is uncertainty
// governed by vmax. A non-terminated trajectory yields a live track.
func FromTrajectory(tr trajectory.Trajectory, vmax float64) (*Track, error) {
	pieces := tr.Pieces()
	if len(pieces) == 0 {
		return nil, fmt.Errorf("bead: empty trajectory")
	}
	samples := make([]Sample, 0, len(pieces)+1)
	for _, pc := range pieces {
		samples = append(samples, Sample{T: pc.Start, X: pc.At(pc.Start)})
	}
	live := !tr.IsTerminated()
	if !live {
		last := pieces[len(pieces)-1]
		if last.End > samples[len(samples)-1].T {
			samples = append(samples, Sample{T: last.End, X: last.At(last.End)})
		}
	}
	return NewTrack(vmax, live, samples)
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

// chain lays the track out as its bead chain, in time order. A
// single-sample live track is just a cap; a single-sample terminated
// track is a degenerate segment pinning the object to one instant.
func (tr *Track) chain() []segment {
	n := len(tr.samples)
	segs := make([]segment, 0, n)
	balls := make([]ball, 0, 2*n) // every segment's constraints, one backing array
	for i := 0; i+1 < n; i++ {
		a, b := tr.samples[i], tr.samples[i+1]
		v := tr.vmax
		// Effective speed: the recorded leg must stay reachable.
		if req := b.X.Dist(a.X) / (b.T - a.T); req > v {
			v = req
		}
		balls = append(balls,
			ball{c: a.X, ra: v, rb: -v * a.T},
			ball{c: b.X, ra: -v, rb: v * b.T})
		segs = append(segs, segment{t0: a.T, t1: b.T, cons: balls[len(balls)-2 : len(balls) : len(balls)]})
	}
	last := tr.samples[n-1]
	if tr.live {
		balls = append(balls, ball{c: last.X, ra: tr.vmax, rb: -tr.vmax * last.T})
		segs = append(segs, segment{t0: last.T, t1: math.Inf(1), cons: balls[len(balls)-1 : len(balls) : len(balls)]})
	} else if n == 1 {
		// Terminated immediately: the object existed exactly at last.T.
		balls = append(balls, ball{c: last.X, ra: 0, rb: 0})
		segs = append(segs, segment{t0: last.T, t1: last.T, cons: balls[len(balls)-1 : len(balls) : len(balls)]})
	}
	return segs
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

// ChainBoxes returns one SegBox per chain bead, in time order. A live
// track's cap is unbounded and deliberately not boxed — Cap exposes it
// for a closed-form side test. A single-sample terminated track yields
// one degenerate box pinning the object to its only recorded instant.
func (tr *Track) ChainBoxes() []SegBox {
	n := len(tr.samples)
	out := make([]SegBox, 0, n)
	box := func(t0, t1 float64, mid geom.Vec, pad float64) SegBox {
		min := make(geom.Vec, tr.dim)
		max := make(geom.Vec, tr.dim)
		for d := 0; d < tr.dim; d++ {
			min[d] = mid[d] - pad
			max[d] = mid[d] + pad
		}
		return SegBox{T0: t0, T1: t1, Min: min, Max: max}
	}
	for i := 0; i+1 < n; i++ {
		a, b := tr.samples[i], tr.samples[i+1]
		v := tr.segs[i].cons[0].ra // the chain's effective speed for this leg
		reach := v * (b.T - a.T)
		mid := a.X.Add(b.X).Scale(0.5)
		out = append(out, box(a.T, b.T, mid, reach/2+boxPad(maxAbs(mid)+reach)))
	}
	if !tr.live && n == 1 {
		last := tr.samples[0]
		out = append(out, box(last.T, last.T, last.X, boxPad(maxAbs(last.X))))
	}
	return out
}

// Cap is a live track's trailing bead: from time T on, the object can
// be anywhere within V·(t−T) of C. Its space-time extent is unbounded,
// so the broad phase keeps caps out of the box index and tests them in
// closed form instead: the cap can reach a query ball (center q, radius
// dist) within [lo, hi] only if hi ≥ T and ‖q−C‖ ≤ dist + V·(hi−T),
// up to the same conservative margins the boxes carry.
type Cap struct {
	T float64
	C geom.Vec
	V float64
}

// Cap returns the live cap, if the track has one.
func (tr *Track) Cap() (Cap, bool) {
	if !tr.live {
		return Cap{}, false
	}
	last := tr.samples[len(tr.samples)-1]
	return Cap{T: last.T, C: last.X, V: tr.vmax}, true
}

// Pad is the conservative inflation a broad phase must add around
// geometry of the given coordinate scale for a miss to be a proof the
// exact kernel would reject the pair too. Track-side boxes already
// carry it (ChainBoxes); query-side geometry applies it to its own
// scale.
func Pad(scale float64) float64 { return boxPad(scale) }

// Reaches reports whether the cap could place its object within dist of
// q at some instant of [lo, hi], conservatively (false is a proof, true
// means "run the kernel"). The cap's reachable set at time t is the
// ball of radius V·(t−T) around C, largest at t = hi; before T the
// object is covered by the chain boxes instead, and a window entirely
// before T cannot see the cap.
func (c Cap) Reaches(q geom.Vec, dist, lo, hi float64) bool {
	if hi < c.T {
		return false
	}
	reach := dist + c.V*(hi-c.T)
	margin := Pad(maxAbs(c.C)+c.V*(hi-c.T)) + Pad(maxAbs(q)+dist)
	return q.Dist(c.C) <= reach+margin
}
