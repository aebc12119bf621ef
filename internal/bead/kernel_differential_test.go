package bead

// The production kernel against the reference kernel (refkernel_test.go)
// on generated ball systems, bit for bit: the outside-in scan, the
// early return on two feasible window ends and the stack scratch must
// not move a single answer, in value or in the sign of a zero.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/poly"
)

// The modes genSystem steers a system's centers and radii into.
const (
	modeConcentric = iota
	modeCollinear
	modeTangent
	// modeMargin places balls 0 and 1 k·eps apart at one instant of the
	// window. k ∈ {1.5, 2, 2.5, 3, 3.5} straddles both 2·eps, the widest
	// gap an accepted candidate can bridge, and 3·eps, beyond which the
	// pair pre-test of feasibleAt rejects the instant.
	modeMargin
	modes = modeMargin + 3 // the rest place centers at random
)

// genSystem draws one ball system and window. The radii have the three
// shapes the queries produce — growing from a sample (ra = v,
// rb = −v·t), shrinking toward one (ra = −v, rb = v·t), constant (the
// query ball) — and mode steers the system into the degenerate
// placements the bead differential (internal/shard) is built around.
func genSystem(rng *rand.Rand, n, dim int) (cons []ball, w0, w1 float64, mode int) {
	mode = rng.Intn(modes)
	scale := 1.0
	switch rng.Intn(8) {
	case 0:
		scale = 1e9
	case 1:
		scale = 1e-3
	}
	if mode == modeMargin {
		scale = []float64{1e-3, 1, 1e9, 1e12}[rng.Intn(4)]
	}
	coord := func() float64 {
		if rng.Intn(3) == 0 {
			return scale * float64(rng.Intn(13)-6) // lattice points: exact ties
		}
		return scale * (rng.Float64()*12 - 6)
	}
	point := func() geom.Vec {
		p := make(geom.Vec, dim)
		for k := range p {
			p[k] = coord()
		}
		return p
	}
	base, dir := point(), point()
	centers := make([]geom.Vec, n)
	for i := range centers {
		switch {
		case mode == modeConcentric && i > 0 && rng.Intn(2) == 0:
			centers[i] = centers[rng.Intn(i)]
		case mode == modeCollinear:
			centers[i] = base.AddScaled(float64(rng.Intn(9)-4), dir)
		default:
			centers[i] = point()
		}
	}
	w0 = float64(rng.Intn(21) - 10)
	if rng.Intn(2) == 0 {
		w0 += rng.Float64()
	}
	switch rng.Intn(10) {
	case 0:
		w1 = w0 // zero-length window
	case 1:
		w1 = w0 + float64(rng.Intn(6))
	default:
		w1 = w0 + rng.Float64()*8
	}
	switch rng.Intn(12) { // windows that end in a zero of either sign
	case 0:
		w0, w1 = math.Copysign(0, -1), math.Abs(w1-w0)
	case 1:
		w0, w1 = 0, math.Abs(w1-w0)
	case 2:
		w0, w1 = -math.Abs(w1-w0), 0
	case 3:
		w0, w1 = -math.Abs(w1-w0), math.Copysign(0, -1)
	}
	cons = make([]ball, n)
	for i, c := range centers {
		v := scale * (0.25 + 3*rng.Float64())
		if rng.Intn(4) == 0 {
			v = scale * float64(1+rng.Intn(3))
		}
		t := w0 + (w1-w0)*(rng.Float64()*2-0.5) // sample time near the window
		if rng.Intn(3) == 0 {
			t = math.Round(t)
		}
		switch rng.Intn(3) {
		case 0:
			cons[i] = ball{c: c, ra: v, rb: -v * t}
		case 1:
			cons[i] = ball{c: c, ra: -v, rb: v * t}
		default:
			cons[i] = ball{c: c, ra: 0, rb: scale * rng.Float64() * 8}
		}
	}
	if rng.Intn(2) == 0 {
		// Near-feasible: every ball about reaches one common point at
		// one instant of the window, some just short of it.
		p, t := point(), w0+(w1-w0)*rng.Float64()
		for i := range cons {
			cons[i].rb += p.Dist(cons[i].c)*(0.8+rng.Float64()) - cons[i].rad(t)
		}
	}
	if mode == modeTangent && n >= 2 {
		// Tangent: make balls 0 and 1 touch exactly (as far as floats
		// allow) at an instant of the window.
		t := w0 + (w1-w0)*rng.Float64()
		d := cons[0].c.Dist(cons[1].c)
		cons[1].rb += d - cons[0].rad(t) - cons[1].rad(t)
	}
	if mode == modeMargin && n >= 2 {
		// The instant is one the differential asks feasibleAt about
		// directly. The radii split d − k·eps; eps follows the radii
		// through the scale, so the split is made again until it holds.
		t := []float64{w0, w1, (w0 + w1) / 2}[rng.Intn(3)]
		k := []float64{1.5, 2, 2.5, 3, 3.5}[rng.Intn(5)]
		share := 0.1 + 0.8*rng.Float64()
		d := cons[0].c.Dist(cons[1].c)
		for range 3 {
			gap := d - k*relEps*consScale(cons, w0, w1)
			cons[0].rb += share*gap - cons[0].rad(t)
			cons[1].rb += gap - cons[0].rad(t) - cons[1].rad(t)
		}
	}
	return cons, w0, w1, mode
}

func TestKernelMatchesReferenceBitForBit(t *testing.T) {
	systems := 120000
	if testing.Short() {
		systems = 12000
	}
	rng := rand.New(rand.NewSource(17))
	var feasible, bothEnds, scanned, zeroEnd, margin int
	for s := 0; s < systems; s++ {
		n, dim := 2+s%3, 1+(s/3)%3
		cons, w0, w1, mode := genSystem(rng, n, dim)
		if mode == modeMargin {
			margin++
		}
		lo, hi, ok := feasibleInterval(cons, w0, w1)
		rlo, rhi, rok := refFeasibleInterval(cons, w0, w1)
		if ok != rok || math.Float64bits(lo) != math.Float64bits(rlo) || math.Float64bits(hi) != math.Float64bits(rhi) {
			t.Fatalf("system %d (n=%d dim=%d) %+v over [%g, %g]:\n kernel    (%v, %v, %v)\n reference (%v, %v, %v)",
				s, n, dim, cons, w0, w1, lo, hi, ok, rlo, rhi, rok)
		}
		// The fixed-time decision on its own, at times the interval
		// scan may never have looked at.
		eps := relEps * consScale(cons, w0, w1)
		for _, tt := range []float64{w0, w1, (w0 + w1) / 2, lo, hi} {
			if got, want := feasibleAt(cons, tt, eps), refFeasibleAt(cons, tt, eps); got != want {
				t.Fatalf("system %d: feasibleAt(%g) = %v, reference %v", s, tt, got, want)
			}
		}
		if !ok {
			continue
		}
		feasible++
		// The windows the zero guard sends through the list.
		if w0 == 0 || w1 == 0 {
			zeroEnd++
		}
		if refFeasibleAt(cons, w0, eps) && refFeasibleAt(cons, w1, eps) {
			bothEnds++
		} else {
			scanned++
		}
	}
	t.Logf("%d systems: %d feasible (%d on both window ends, %d found by the scan, %d with a zero window end), %d on the pair margin",
		systems, feasible, bothEnds, scanned, zeroEnd, margin)
	// The generator must keep every path of the kernel busy, or the
	// comparison proves nothing about it.
	for name, c := range map[string]int{"both ends": bothEnds, "scan": scanned, "zero end": zeroEnd, "pair margin": margin} {
		if c < systems/50 {
			t.Errorf("only %d of %d systems exercise the %q path", c, systems, name)
		}
	}
}

// TestKernelHeapFallbackMatchesReference runs systems larger than the
// stack scratch (five and six balls, five dimensions) through the same
// code and holds them to the reference too.
func TestKernelHeapFallbackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	feasible := 0
	for s := 0; s < 600; s++ {
		n, dim := 5+s%2, 2+s%4
		cons, w0, w1, _ := genSystem(rng, n, dim)
		lo, hi, ok := feasibleInterval(cons, w0, w1)
		rlo, rhi, rok := refFeasibleInterval(cons, w0, w1)
		if ok != rok || math.Float64bits(lo) != math.Float64bits(rlo) || math.Float64bits(hi) != math.Float64bits(rhi) {
			t.Fatalf("system %d (n=%d dim=%d) %+v over [%g, %g]:\n kernel    (%v, %v, %v)\n reference (%v, %v, %v)",
				s, n, dim, cons, w0, w1, lo, hi, ok, rlo, rhi, rok)
		}
		if ok {
			feasible++
		}
	}
	if feasible < 60 {
		t.Errorf("only %d of 600 large systems feasible", feasible)
	}
}

// TestQuarticArithmeticIsPolys holds the fixed-storage polynomial
// arithmetic of the pinch quartic to the poly.Poly operations it
// mirrors, coefficient bits and canonical length alike — including
// operands whose small coefficients sit on either side of poly's trim
// threshold.
func TestQuarticArithmeticIsPolys(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	coeff := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return rng.NormFloat64() * 1e-12 * math.Pow(10, float64(rng.Intn(3)-1))
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	operand := func() (quartic, poly.Poly) { // degree ≤ 2, canonical
		cs := []float64{coeff(), coeff(), coeff()}[:1+rng.Intn(3)]
		var q quartic
		q.n = copy(q.c[:], cs)
		return q.trim(), poly.New(cs...)
	}
	same := func(op string, q quartic, p poly.Poly) {
		t.Helper()
		if q.n != len(p) {
			t.Fatalf("%s: quartic %v, poly %v", op, q.c[:q.n], p)
		}
		for i, c := range p {
			if math.Float64bits(q.c[i]) != math.Float64bits(c) {
				t.Fatalf("%s: coefficient %d: quartic %v, poly %v", op, i, q.c[:q.n], p)
			}
		}
	}
	for i := 0; i < 50000; i++ {
		qa, pa := operand()
		qb, pb := operand()
		same("operand", qa, pa)
		same("add", qa.plus(1, qb), pa.Add(pb))
		same("sub", qa.plus(-1, qb), pa.Sub(pb))
		same("mul", qa.mul(qb), pa.Mul(pb))
		same("neg", qa.neg(), pa.Neg())
		k := coeff()
		same("scale", qa.scale(k), pa.Scale(k))
		same("constant", constantQuartic(k), poly.Constant(k))
		a, b := coeff(), coeff()
		same("linear", linearQuartic(a, b), poly.Linear(a, b))
		same("square of product", qa.mul(qb).plus(1, qb.mul(qb)), pa.Mul(pb).Add(pb.Mul(pb)))
	}
}
