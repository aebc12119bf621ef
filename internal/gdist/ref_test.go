package gdist

// The whole-history builders, kept as the reference the windowed ones
// are held to bit for bit: every curve here is made from every piece a
// trajectory ever had and clipped to the window last, and relativeMin
// walks from piece 0. They are the code that served requests before
// curves were built from the window's pieces; nothing outside this file
// may call them.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/piecewise"
	"repro/internal/poly"
	"repro/internal/trajectory"
)

// refCoordinate is coordinate i of the whole trajectory.
func refCoordinate(tr trajectory.Trajectory, i int) (piecewise.Func, error) {
	if !tr.IsDefined() {
		return piecewise.Func{}, trajectory.ErrEmpty
	}
	if i < 0 || i >= tr.Dim() {
		return piecewise.Func{}, fmt.Errorf("trajectory: coordinate %d out of range (dim %d)", i, tr.Dim())
	}
	var pieces []piecewise.Piece
	for _, pc := range tr.Pieces() {
		b := pc.B[i]
		if pc.A[i] != 0 {
			b -= pc.A[i] * pc.Start
		}
		pieces = append(pieces, piecewise.Piece{Start: pc.Start, End: pc.End, P: poly.Linear(pc.A[i], b)})
	}
	return piecewise.New(pieces...)
}

func refRelativeSq(tr, q trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	if tr.Dim() != q.Dim() {
		return piecewise.Func{}, fmt.Errorf("gdist: dimension %d vs query %d", tr.Dim(), q.Dim())
	}
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	lo2, hi2, err := window(q, lo, hi)
	if err != nil {
		return piecewise.Func{}, err
	}
	lo, hi = lo2, hi2

	sum := piecewise.Constant(0, lo, hi)
	for i := 0; i < tr.Dim(); i++ {
		ci, err := refCoordinate(tr, i)
		if err != nil {
			return piecewise.Func{}, err
		}
		qi, err := refCoordinate(q, i)
		if err != nil {
			return piecewise.Func{}, err
		}
		di, err := ci.Sub(qi)
		if err != nil {
			return piecewise.Func{}, err
		}
		sq, err := di.Mul(di)
		if err != nil {
			return piecewise.Func{}, err
		}
		sum, err = sum.Add(sq)
		if err != nil {
			return piecewise.Func{}, err
		}
	}
	return sum, nil
}

func refAxisSq(a AxisSq, tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	if a.Axis < 0 || a.Axis >= tr.Dim() {
		return piecewise.Func{}, fmt.Errorf("gdist: axis %d out of range (dim %d)", a.Axis, tr.Dim())
	}
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	if _, _, err = window(a.Query, lo, hi); err != nil {
		return piecewise.Func{}, err
	}
	ci, err := refCoordinate(tr, a.Axis)
	if err != nil {
		return piecewise.Func{}, err
	}
	qi, err := refCoordinate(a.Query, a.Axis)
	if err != nil {
		return piecewise.Func{}, err
	}
	di, err := ci.Sub(qi)
	if err != nil {
		return piecewise.Func{}, err
	}
	sq, err := di.Mul(di)
	if err != nil {
		return piecewise.Func{}, err
	}
	return sq.Restrict(math.Max(from, math.Inf(-1)), to)
}

func refCoordinateCurve(c Coordinate, tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	f, err := refCoordinate(tr, c.Axis)
	if err != nil {
		return piecewise.Func{}, err
	}
	return f.Restrict(lo, hi)
}

func refSpeedSq(tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return piecewise.Func{}, err
	}
	var pieces []piecewise.Piece
	for _, pc := range tr.Pieces() {
		a := math.Max(pc.Start, lo)
		b := math.Min(pc.End, hi)
		if !(a < b) {
			continue
		}
		pieces = append(pieces, piecewise.Piece{Start: a, End: b, P: poly.Constant(pc.A.Len2())})
	}
	return piecewise.New(pieces...)
}

// refCurve is g.Curve with every builder replaced by its reference.
func refCurve(g GDistance, tr trajectory.Trajectory, from, to float64) (piecewise.Func, error) {
	switch g := g.(type) {
	case EuclideanSq:
		return refRelativeSq(tr, g.Query, from, to)
	case PointSq: // a query at rest at the point since -Inf
		return refRelativeSq(tr, trajectory.Stationary(math.Inf(-1), g.Point), from, to)
	case AxisSq:
		return refAxisSq(g, tr, from, to)
	case Coordinate:
		return refCoordinateCurve(g, tr, from, to)
	case SpeedSq:
		return refSpeedSq(tr, from, to)
	case Weighted:
		f, err := refCurve(g.Inner, tr, from, to)
		if err != nil {
			return piecewise.Func{}, err
		}
		return f.Scale(g.Weight), nil
	case Sum:
		fa, err := refCurve(g.A, tr, from, to)
		if err != nil {
			return piecewise.Func{}, err
		}
		fb, err := refCurve(g.B, tr, from, to)
		if err != nil {
			return piecewise.Func{}, err
		}
		return fa.Add(fb)
	}
	panic(fmt.Sprintf("refCurve: no reference for %T", g))
}

// refRelativeMin is relativeMin walking every stretch from piece 0.
func refRelativeMin(tr, q trajectory.Trajectory, p geom.Vec, from, to float64) (float64, error) {
	lo, hi, err := window(tr, from, to)
	if err != nil {
		return 0, err
	}
	rest := trajectory.Piece{Start: math.Inf(-1), End: math.Inf(1), B: p}
	nq := 1
	if q.IsDefined() {
		if lo, hi, err = window(q, lo, hi); err != nil {
			return 0, err
		}
		nq = q.NumPieces()
	}
	least := math.Inf(1)
	for i, j := 0, 0; i < tr.NumPieces() && j < nq; {
		pc, qc := tr.PieceAt(i), rest
		if q.IsDefined() {
			qc = q.PieceAt(j)
		}
		a, b := math.Max(lo, math.Max(pc.Start, qc.Start)), math.Min(hi, math.Min(pc.End, qc.End))
		if a <= b {
			var dd, dv, vv float64
			for k := range pc.B {
				d := pc.B[k] + (a-pc.Start)*pc.A[k] - qc.B[k]
				v := pc.A[k]
				if qc.A != nil && qc.A[k] != 0 {
					d -= (a - qc.Start) * qc.A[k]
					v -= qc.A[k]
				}
				dd += d * d
				dv += d * v
				vv += v * v
			}
			s := 0.0
			if vv > 0 {
				s = math.Min(math.Max(-dv/vv, 0), b-a)
			}
			least = math.Min(least, dd+s*(2*dv+s*vv))
		}
		if pc.End <= qc.End {
			i++
		}
		if qc.End <= pc.End {
			j++
		}
	}
	return least, nil
}

// sameCurve reports how two curves differ in any break or coefficient
// bit, "" when they do not.
func sameCurve(got, want piecewise.Func) string {
	gp, wp := got.Pieces(), want.Pieces()
	if len(gp) != len(wp) {
		return fmt.Sprintf("%d pieces, want %d", len(gp), len(wp))
	}
	for i := range gp {
		g, w := gp[i], wp[i]
		if math.Float64bits(g.Start) != math.Float64bits(w.Start) || math.Float64bits(g.End) != math.Float64bits(w.End) {
			return fmt.Sprintf("piece %d on [%v,%v], want [%v,%v]", i, g.Start, g.End, w.Start, w.End)
		}
		if len(g.P) != len(w.P) {
			return fmt.Sprintf("piece %d: %v, want %v", i, g.P, w.P)
		}
		for k := range g.P {
			if math.Float64bits(g.P[k]) != math.Float64bits(w.P[k]) {
				return fmt.Sprintf("piece %d coefficient %d: %v, want %v", i, k, g.P[k], w.P[k])
			}
		}
	}
	return ""
}

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error()
}

// randomHistory is a trajectory of n pieces in R^2 that starts at t0
// within 50 of (off, off), built the way the database builds one: a
// `new` and n-1 `chdir`s, and a `terminate` when terminated. Some legs
// stand still and some move along one axis only, so zero velocity
// components (which skip the A*Start term) are covered.
func randomHistory(rng *rand.Rand, n int, t0, off float64, terminated bool) trajectory.Trajectory {
	vel := func() geom.Vec {
		v := geom.Of(4*(rng.Float64()-0.5), 4*(rng.Float64()-0.5))
		switch rng.Intn(8) {
		case 0:
			return geom.Of(0, 0)
		case 1:
			v[rng.Intn(2)] = 0
		}
		return v
	}
	tr := trajectory.Linear(t0, vel(), geom.Of(off+100*(rng.Float64()-0.5), off+100*(rng.Float64()-0.5)))
	t := t0
	var err error
	for i := 1; i < n; i++ {
		t += 0.05 + rng.Float64()
		if tr, err = tr.ChDir(t, vel()); err != nil {
			panic(err)
		}
	}
	if terminated {
		if tr, err = tr.Terminate(t + 0.05 + rng.Float64()); err != nil {
			panic(err)
		}
	}
	return tr
}

// pieceCount draws 1–500, mostly small: long histories are the case
// that matters, short ones are where every edge sits close to a window.
func pieceCount(rng *rand.Rand) int {
	switch rng.Intn(20) {
	case 0:
		return 100 + rng.Intn(401)
	case 1, 2, 3:
		return 10 + rng.Intn(90)
	}
	return 1 + rng.Intn(9)
}

// randomWindow draws a window over tr's lifetime of one of the shapes
// the windowed builders must get right: ends exactly on breaks, inside
// one piece, starting before the object exists, ending after it
// terminates, unbounded above, or anywhere (which includes windows that
// miss the object altogether).
func randomWindow(rng *rand.Rand, tr trajectory.Trajectory) (lo, hi float64) {
	n := tr.NumPieces()
	end := tr.End()
	if math.IsInf(end, 1) {
		end = tr.PieceAt(n-1).Start + 2
	}
	span := end - tr.Start()
	anywhere := func() float64 { return tr.Start() - 1 + (span+2)*rng.Float64() }
	knot := func() float64 {
		if k := rng.Intn(n + 1); k < n {
			return tr.PieceAt(k).Start
		}
		return tr.PieceAt(n - 1).End // +Inf for a live object
	}
	switch rng.Intn(8) {
	case 0: // both ends on breaks
		lo, hi = knot(), knot()
	case 1: // starts on a break
		lo, hi = knot(), anywhere()
	case 2: // ends on a break
		lo, hi = anywhere(), knot()
	case 3: // inside one piece
		pc := tr.PieceAt(rng.Intn(n))
		e := math.Min(pc.End, pc.Start+2)
		lo = pc.Start + (e-pc.Start)*rng.Float64()
		hi = lo + (e-lo)*rng.Float64()
	case 4: // starts before the object exists
		lo, hi = tr.Start()-1-rng.Float64(), anywhere()
	case 5: // ends after it terminates (or far into a live object's last leg)
		lo, hi = anywhere(), end+1+rng.Float64()
	case 6: // unbounded above
		lo, hi = anywhere(), math.Inf(1)
	default:
		lo, hi = anywhere(), anywhere()
	}
	if lo > hi && rng.Intn(4) != 0 { // mostly proper windows; keep some inverted ones for the error path
		lo, hi = hi, lo
	}
	return lo, hi
}

// TestCurvesMatchWholeHistoryReference holds every curve builder to its
// whole-history reference over a generated corpus: equal errors, and
// equal bits in every break and coefficient.
func TestCurvesMatchWholeHistoryReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const histories, windowsEach = 2500, 8
	pairs, curves, refused := 0, 0, 0
	for h := 0; h < histories; h++ {
		// Half the histories, their queries and points sit far out in time
		// and space, where a coordinate's intercept dwarfs its slope and
		// the difference to the point cancels most of its digits.
		off := []float64{0, 0, 1e6, 1e12}[rng.Intn(4)]
		tr := randomHistory(rng, pieceCount(rng), off+10*rng.Float64(), off, rng.Intn(3) == 0)
		// A moving query with its own breaks and its own lifetime, which
		// may cover the object's only in part.
		q := randomHistory(rng, pieceCount(rng), off+10*rng.Float64()-2, off, rng.Intn(3) == 0)
		point := geom.Of(off+100*(rng.Float64()-0.5), off+100*(rng.Float64()-0.5))
		switch rng.Intn(8) { // a coordinate of exactly 0 or -0
		case 0:
			point[rng.Intn(2)] = 0
		case 1:
			point[rng.Intn(2)] = math.Copysign(0, -1)
		}
		gs := []GDistance{
			PointSq{Point: point},
			EuclideanSq{Query: q},
			EuclideanSq{Query: trajectory.Stationary(tr.Start()+rng.Float64(), point)},
			AxisSq{Query: q, Axis: rng.Intn(2)},
			Coordinate{Axis: rng.Intn(2)},
			SpeedSq{},
			Sum{A: PointSq{Point: point}, B: Weighted{Inner: Coordinate{Axis: 1}, Weight: -2.5}},
			Weighted{Inner: EuclideanSq{Query: q}, Weight: 0.3},
			Sum{A: AxisSq{Query: q, Axis: 0}, B: SpeedSq{}},
			AxisSq{Query: q, Axis: 2},       // axis out of range
			EuclideanSq{Query: oneD(q)},     // dimension mismatch
			AxisSq{Query: oneD(q), Axis: 1}, // axis the query lacks
		}
		for w := 0; w < windowsEach; w++ {
			lo, hi := randomWindow(rng, tr)
			pairs++
			for k, g := range gs {
				if (pairs+k)%3 != 0 {
					continue // a third of the distances on each pair, all of them on every history
				}
				got, gerr := g.Curve(tr, lo, hi)
				want, werr := refCurve(g, tr, lo, hi)
				if !sameErr(gerr, werr) {
					t.Fatalf("history %d (%d pieces) %s over [%v,%v]: error %v, reference %v",
						h, tr.NumPieces(), g.Name(), lo, hi, gerr, werr)
				}
				if werr != nil {
					refused++
					continue
				}
				curves++
				if d := sameCurve(got, want); d != "" {
					t.Fatalf("history %d (%d pieces) %s over [%v,%v]: %s",
						h, tr.NumPieces(), g.Name(), lo, hi, d)
				}
			}
		}
	}
	if pairs < 20000 || refused > curves {
		t.Fatalf("corpus too thin: %d trajectory-window pairs, %d curves compared, %d refusals", pairs, curves, refused)
	}
	t.Logf("%d trajectory x window pairs, %d curves equal bit for bit, %d equal refusals", pairs, curves, refused)
}

// oneD is q's first coordinate as a trajectory in R^1.
func oneD(q trajectory.Trajectory) trajectory.Trajectory {
	pcs := q.Pieces()
	for i := range pcs {
		pcs[i].A, pcs[i].B = pcs[i].A[:1], pcs[i].B[:1]
	}
	return trajectory.MustFromPieces(pcs...)
}

// TestLowerBoundMatchesLinearWalk: relativeMin started at the window
// returns the bits of the walk from piece 0, and the same refusals.
func TestLowerBoundMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for h := 0; h < 600; h++ {
		tr := randomHistory(rng, pieceCount(rng), 10*rng.Float64(), 0, rng.Intn(3) == 0)
		q := randomHistory(rng, pieceCount(rng), 10*rng.Float64()-2, 0, rng.Intn(3) == 0)
		point := geom.Of(100*(rng.Float64()-0.5), 100*(rng.Float64()-0.5))
		for w := 0; w < 8; w++ {
			lo, hi := randomWindow(rng, tr)
			for _, c := range []struct {
				lb LowerBounder
				q  trajectory.Trajectory
				p  geom.Vec
			}{
				{PointSq{Point: point}, trajectory.Trajectory{}, point},
				{EuclideanSq{Query: q}, q, nil},
			} {
				got, gerr := c.lb.LowerBound(tr, lo, hi)
				want, werr := refRelativeMin(tr, c.q, c.p, lo, hi)
				if !sameErr(gerr, werr) || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("history %d (%d pieces) %s over [%v,%v]: %v, %v; linear walk %v, %v",
						h, tr.NumPieces(), c.lb.Name(), lo, hi, got, gerr, want, werr)
				}
				checked++
			}
		}
	}
	t.Logf("%d lower bounds equal bit for bit", checked)
}
