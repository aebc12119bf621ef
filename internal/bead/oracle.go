package bead

// The differential oracle: a deliberately-dumb certified approximation
// of the same ball-system feasibility question the exact kernel answers
// in closed form. It knows nothing about convexity intervals, tangency
// polynomials, or Apollonius systems — it discretizes time densely,
// then runs interval-arithmetic branch-and-bound over (t, x) boxes:
//
//   - A sampled point with max_j(‖x − c_j‖ − r_j(t)) ≤ 0 is a WITNESS:
//     the configuration is certainly feasible (Possible).
//   - A box whose best conceivable value, via the Lipschitz bound
//     G(center) − (space half-diagonal + max|ra|·time half-width),
//     still exceeds the safety band is certainly infeasible and is
//     pruned. If every box dies this way, the answer is Impossible.
//   - If the node budget runs out first the oracle says Unresolved and
//     the harness skips the scenario — it never guesses.
//
// The band keeps the two deciders honest about tolerance: the kernel
// accepts boundary contact within relEps×scale (1e-9 relative), so the
// oracle only asserts Impossible when the system is infeasible by a
// margin (1e-6 relative) a thousand times wider. A genuine disagreement
// therefore can never be a knife-edge rounding artifact.

import (
	"math"

	"repro/internal/geom"
)

// Verdict is the oracle's three-valued answer.
type Verdict int

const (
	// Impossible: certified — no feasible (t, x) exists, by margin.
	Impossible Verdict = iota
	// Possible: certified — a concrete witness point was found.
	Possible
	// Unresolved: budget exhausted before certification either way.
	Unresolved
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Impossible:
		return "impossible"
	case Possible:
		return "possible"
	case Unresolved:
		return "unresolved"
	default:
		return "verdict(?)"
	}
}

// Oracle holds the discretization knobs. The zero value is unusable;
// call NewOracle for sane defaults.
type Oracle struct {
	// TimeSlices is the initial dense time discretization of each
	// window before branch-and-bound refines adaptively.
	TimeSlices int
	// MaxNodes bounds the boxes explored per window; exhaustion yields
	// Unresolved rather than a guess.
	MaxNodes int
	// Band is the relative infeasibility margin required to certify
	// Impossible. Must dominate the exact kernel's relEps.
	Band float64
}

// NewOracle returns an oracle with the harness defaults.
func NewOracle() *Oracle {
	return &Oracle{TimeSlices: 32, MaxNodes: 20000, Band: 1e-6}
}

// box is one branch-and-bound node: a time interval × an axis-aligned
// spatial box (lo[d], hi[d]).
type box struct {
	t0, t1 float64
	lo, hi []float64
}

// feasible runs branch-and-bound on one constraint system over the
// finite window [w0, w1].
func (o *Oracle) feasible(cons []ball, w0, w1 float64) Verdict {
	if !(w0 <= w1) {
		return Impossible
	}
	scale := consScale(cons, w0, w1)
	band := o.Band * scale
	dim := cons[0].c.Dim()
	maxRA := 0.0
	for _, b := range cons {
		if a := math.Abs(b.ra); a > maxRA {
			maxRA = a
		}
	}

	// G(t, x) = worst constraint deficit. Radii are NOT clamped at
	// zero: the continuous extension keeps G 1-Lipschitz in x and
	// maxRA-Lipschitz in t, which the pruning bound relies on.
	G := func(t float64, x []float64) float64 {
		worst := math.Inf(-1)
		for _, b := range cons {
			var d2 float64
			for d := 0; d < dim; d++ {
				diff := x[d] - b.c[d]
				d2 += diff * diff
			}
			if g := math.Sqrt(d2) - b.rad(t); g > worst {
				worst = g
			}
		}
		return worst
	}

	// Initial spatial box: the intersection of the per-ball bounding
	// boxes at the most generous radius each ball reaches in-window.
	spLo := make([]float64, dim)
	spHi := make([]float64, dim)
	for d := 0; d < dim; d++ {
		spLo[d] = math.Inf(-1)
		spHi[d] = math.Inf(1)
	}
	for _, b := range cons {
		r := math.Max(b.rad(w0), b.rad(w1))
		if r < 0 {
			r = 0
		}
		for d := 0; d < dim; d++ {
			spLo[d] = math.Max(spLo[d], b.c[d]-r)
			spHi[d] = math.Min(spHi[d], b.c[d]+r)
		}
	}
	for d := 0; d < dim; d++ {
		if g := spLo[d] - spHi[d]; g > 0 {
			// Bounding boxes are disjoint by gap g in one axis; any
			// point is at least g/2 outside some ball.
			if g/2 > band {
				return Impossible
			}
			return Unresolved
		}
	}

	// visit runs the witness checks on a box — its center, plus every
	// (t-endpoint × space-corner). Corners matter: tangency witnesses
	// in the planted fixtures sit at dyadic coordinates that only
	// corner evaluation reaches in finitely many splits. Returns the
	// center deficit, which doubles as the box's search priority.
	corners := 1 << dim
	x := make([]float64, dim)
	visit := func(bx box) (gc float64, witness bool) {
		tc := (bx.t0 + bx.t1) / 2
		for d := 0; d < dim; d++ {
			x[d] = (bx.lo[d] + bx.hi[d]) / 2
		}
		gc = G(tc, x)
		if gc <= 0 {
			return gc, true
		}
		for _, t := range [2]float64{bx.t0, bx.t1} {
			for m := 0; m < corners; m++ {
				for d := 0; d < dim; d++ {
					if m&(1<<d) != 0 {
						x[d] = bx.hi[d]
					} else {
						x[d] = bx.lo[d]
					}
				}
				if G(t, x) <= 0 {
					return gc, true
				}
			}
		}
		return gc, false
	}

	// Dense initial time discretization, then best-first refinement:
	// boxes with the smallest center deficit are split first, so a
	// witness (if any) is reached long before the budget goes on
	// sharpening far-from-feasible regions. The certification story is
	// order-independent — Impossible still requires every box pruned.
	slices := o.TimeSlices
	if slices < 1 {
		slices = 1
	}
	var queue boxQueue
	nodes := 0
	push := func(bx box) bool {
		nodes++
		gc, witness := visit(bx)
		if witness {
			return true
		}
		// Prune: the Lipschitz bound says no point of the box can
		// beat gc − reach. Requiring it to clear the band as well
		// keeps knife-edge boxes alive until a witness or the budget
		// settles them.
		var diag2 float64
		for d := 0; d < dim; d++ {
			w := bx.hi[d] - bx.lo[d]
			diag2 += w * w / 4
		}
		reach := math.Sqrt(diag2) + maxRA*(bx.t1-bx.t0)/2
		if gc-reach > band {
			return false
		}
		queue.push(bx, gc)
		return false
	}
	if w1 > w0 {
		step := (w1 - w0) / float64(slices)
		for i := 0; i < slices; i++ {
			a := w0 + float64(i)*step
			b := w0 + float64(i+1)*step
			if i == slices-1 {
				b = w1
			}
			if push(box{t0: a, t1: b,
				lo: append([]float64(nil), spLo...), hi: append([]float64(nil), spHi...)}) {
				return Possible
			}
		}
	} else if push(box{t0: w0, t1: w0, lo: spLo, hi: spHi}) {
		return Possible
	}

	for queue.len() > 0 {
		if nodes > o.MaxNodes {
			return Unresolved
		}
		bx := queue.pop()

		// Split the dominant dimension, time weighted by its Lipschitz
		// constant so space and time shrink at comparable G-rates.
		longDim := -1 // -1 = split time
		longest := math.Max(maxRA, 1e-3) * (bx.t1 - bx.t0)
		for d := 0; d < dim; d++ {
			if w := bx.hi[d] - bx.lo[d]; w > longest {
				longest, longDim = w, d
			}
		}
		a, b := bx, bx
		a.lo = append([]float64(nil), bx.lo...)
		a.hi = append([]float64(nil), bx.hi...)
		b.lo = append([]float64(nil), bx.lo...)
		b.hi = append([]float64(nil), bx.hi...)
		if longDim == -1 {
			mid := (bx.t0 + bx.t1) / 2
			a.t1, b.t0 = mid, mid
		} else {
			mid := (bx.lo[longDim] + bx.hi[longDim]) / 2
			a.hi[longDim], b.lo[longDim] = mid, mid
		}
		if push(a) || push(b) {
			return Possible
		}
	}
	return Impossible
}

// boxQueue is a binary min-heap of boxes keyed by center deficit.
type boxQueue struct {
	boxes []box
	keys  []float64
}

func (q *boxQueue) len() int { return len(q.boxes) }

func (q *boxQueue) push(bx box, key float64) {
	q.boxes = append(q.boxes, bx)
	q.keys = append(q.keys, key)
	i := len(q.keys) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.keys[p] <= q.keys[i] {
			break
		}
		q.swap(i, p)
		i = p
	}
}

func (q *boxQueue) pop() box {
	top := q.boxes[0]
	n := len(q.keys) - 1
	q.swap(0, n)
	q.boxes = q.boxes[:n]
	q.keys = q.keys[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.keys[l] < q.keys[small] {
			small = l
		}
		if r < n && q.keys[r] < q.keys[small] {
			small = r
		}
		if small == i {
			break
		}
		q.swap(i, small)
		i = small
	}
	return top
}

func (q *boxQueue) swap(i, j int) {
	q.boxes[i], q.boxes[j] = q.boxes[j], q.boxes[i]
	q.keys[i], q.keys[j] = q.keys[j], q.keys[i]
}

// windowPairs intersects the two tracks' segment lists with [lo, hi]
// and yields every overlapping (segment, segment) window with the
// combined constraint system, calling fn on each. fn returns false to
// stop early.
func windowPairs(a, b *Track, lo, hi float64, fn func(cons []ball, w0, w1 float64) bool) {
	for i := 0; i < a.numSegs(); i++ {
		for j := 0; j < b.numSegs(); j++ {
			sa, sb := a.segAt(i), b.segAt(j)
			w0 := math.Max(math.Max(sa.t0, sb.t0), lo)
			w1 := math.Min(math.Min(sa.t1, sb.t1), hi)
			if !(w0 <= w1) {
				continue
			}
			cons := make([]ball, 0, len(sa.cons)+len(sb.cons))
			cons = append(cons, sa.cons...)
			cons = append(cons, sb.cons...)
			if !fn(cons, w0, w1) {
				return
			}
		}
	}
}

// Alibi is the oracle's take on the alibi query: could the two tracks'
// objects have met during [lo, hi]? It does the dumbest correct thing —
// every segment pair, full branch-and-bound on each.
func (o *Oracle) Alibi(a, b *Track, lo, hi float64) Verdict {
	out := Impossible
	windowPairs(a, b, lo, hi, func(cons []ball, w0, w1 float64) bool {
		switch o.feasible(cons, w0, w1) {
		case Possible:
			out = Possible
			return false
		case Unresolved:
			out = Unresolved
		}
		return true
	})
	return out
}

// PossiblyWithin is the oracle's take on the range question: could the
// track's object have been within dist of q at some point in [lo, hi]?
func (o *Oracle) PossiblyWithin(tr *Track, q geom.Vec, dist, lo, hi float64) Verdict {
	qb := ball{c: q.Clone(), ra: 0, rb: dist}
	out := Impossible
	for i := 0; i < tr.numSegs(); i++ {
		s := tr.segAt(i)
		w0 := math.Max(s.t0, lo)
		w1 := math.Min(s.t1, hi)
		if !(w0 <= w1) {
			continue
		}
		cons := make([]ball, 0, len(s.cons)+1)
		cons = append(cons, s.cons...)
		cons = append(cons, qb)
		switch o.feasible(cons, w0, w1) {
		case Possible:
			return Possible
		case Unresolved:
			out = Unresolved
		}
	}
	return out
}
