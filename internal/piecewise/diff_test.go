package piecewise

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/poly"
)

// TestPairDiffMatchesLazyWalkers holds PairDiff to its contract: wherever
// a build covers a time, each of its four queries answers bit for bit as
// the lazy walker over the two curves does. The pairs are random
// piecewise-linear and piecewise-quadratic curves, identical curves,
// curves that coincide on one stretch only, curves that touch, and
// curves whose domains only partly overlap, two of them meeting at an
// edge of the overlap. The times are every build
// origin, random times, every piece boundary of either curve and the
// float64 neighbours of each boundary, where the segment lookup decides
// which piece governs.
func TestPairDiffMatchesLazyWalkers(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var d PairDiff // one cache for every build: Reset recycles its storage
	checks, truncated := 0, 0
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	// Two pairs meet where one curve starts or ends and the other turns:
	// there the walkers read a piece from outside the overlap.
	edges := [][2]Func{
		{Constant(0, 4, 100), MustNew(Piece{Start: 0, End: 4, P: poly.Linear(-1, 4)}, Piece{Start: 4, End: 100, P: poly.Linear(1, -4)})},
		{Constant(0, 0, 50), MustNew(Piece{Start: 0, End: 50, P: poly.Linear(1, -50)}, Piece{Start: 50, End: 100, P: poly.Linear(-1, 50)})},
	}
	for trial := 0; trial < 400; trial++ {
		var f, g Func
		if trial < len(edges) {
			f, g = edges[trial][0], edges[trial][1]
		} else {
			f, g = randPair(rng, trial%5)
		}
		var bounds []float64
		for _, c := range []Func{f, g} {
			for _, pc := range c.pieces {
				for _, b := range []float64{pc.Start, pc.End} {
					if !math.IsInf(b, 0) {
						bounds = append(bounds, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
					}
				}
			}
		}
		flo, _ := f.Domain()
		glo, _ := g.Domain()
		origins := []float64{math.Max(flo, glo), rng.Float64() * 100, bounds[rng.Intn(len(bounds))]}
		for _, from := range origins {
			d.Reset(f, g, from)
			times := append([]float64{from, rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}, bounds...)
			rng.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })
			for _, at := range times {
				if !d.Covers(at) {
					continue
				}
				if d.valid && d.origin > d.lo {
					truncated++
				}
				fail := func(what string, got, want any) {
					t.Fatalf("trial %d, built from %v, at %v: %s = %v, lazy walker %v\nf=%s\ng=%s",
						trial, from, at, what, got, want, f, g)
				}
				for _, hi := range []float64{math.Inf(1), at + rng.Float64()*30} {
					s1, c1, ok1 := d.FirstMeetingAfter(at, hi)
					s2, c2, ok2 := FirstMeetingAfter(f, g, at, hi)
					if !same(s1, s2) || c1 != c2 || ok1 != ok2 {
						fail("FirstMeetingAfter", []any{s1, c1, ok1}, []any{s2, c2, ok2})
					}
					e1, ok1 := d.CoincidenceEndAfter(at, hi)
					e2, ok2 := CoincidenceEndAfter(f, g, at, hi)
					if !same(e1, e2) || ok1 != ok2 {
						fail("CoincidenceEndAfter", []any{e1, ok1}, []any{e2, ok2})
					}
				}
				if got, want := d.SignAfter(at), SignDiffAfter(f, g, at); got != want {
					fail("SignAfter", got, want)
				}
				if got, want := d.SignBefore(at), SignDiffBefore(f, g, at); got != want {
					fail("SignBefore", got, want)
				}
				checks += 6
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no query ran on a build truncated past the overlap's start")
	}
	t.Logf("%d checks, %d queries on truncated builds", checks, truncated)
}

// randPair draws one pair of curves of the given kind: 0 independent
// curves over random domains, 1 the same curve twice, 2 curves equal
// but on one piece, 3 curves that touch at a grid time, 4 a linear and
// a quadratic curve over the same domain.
func randPair(rng *rand.Rand, kind int) (Func, Func) {
	switch kind {
	case 0:
		return randCurve(rng, randDomain(rng), 1+rng.Intn(2)), randCurve(rng, randDomain(rng), 1+rng.Intn(2))
	case 1:
		f := randCurve(rng, randDomain(rng), 1+rng.Intn(2))
		return f, f
	case 2:
		f := randCurve(rng, randDomain(rng), 1+rng.Intn(2))
		ps := f.Pieces()
		j := rng.Intn(len(ps))
		if math.IsInf(ps[j].End, 1) {
			ps[j].P = ps[j].P.Add(poly.Linear(1, -ps[j].Start))
		} else {
			// k(t - Start)(t - End) keeps the curve continuous.
			ps[j].P = ps[j].P.Add(poly.FromRoots(ps[j].Start, ps[j].End).Scale(float64(1 + rng.Intn(3))))
		}
		return f, MustNew(ps...)
	case 3:
		f := randCurve(rng, randDomain(rng), 1+rng.Intn(2))
		lo, _ := f.Domain()
		t0 := lo + math.Floor(rng.Float64()*40)/2
		return f, f.AddPoly(poly.FromRoots(t0, t0).Scale(0.5))
	default:
		dom := randDomain(rng)
		return randCurve(rng, dom, 1), randCurve(rng, dom, 2)
	}
}

// randDomain draws a domain on the half-unit grid: it starts at 0 or
// later and ends at 100, earlier or never.
func randDomain(rng *rand.Rand) [2]float64 {
	lo, hi := 0.0, 100.0
	if rng.Intn(2) == 0 {
		lo = math.Floor(rng.Float64()*80) / 2
	}
	switch rng.Intn(3) {
	case 0:
		hi = math.Inf(1)
	case 1:
		hi = lo + 10 + math.Floor(rng.Float64()*120)/2
	}
	return [2]float64{lo, hi}
}

// randCurve draws a continuous curve of up to four pieces of at most
// the given degree over dom, with breakpoints on the half-unit grid so
// that two curves often share one and meet at grid times.
func randCurve(rng *rand.Rand, dom [2]float64, deg int) Func {
	lo, hi := dom[0], dom[1]
	breaks := []float64{lo}
	for n := rng.Intn(4); n > 0; n-- {
		b := breaks[len(breaks)-1] + 1 + math.Floor(rng.Float64()*30)/2
		if b >= hi {
			break
		}
		breaks = append(breaks, b)
	}
	breaks = append(breaks, hi)
	v := math.Floor(rng.Float64()*40) - 20
	var ps []Piece
	for i := 0; i+1 < len(breaks); i++ {
		a, b := breaks[i], breaks[i+1]
		s := math.Floor(rng.Float64()*9) - 4
		c := 0.0
		if deg == 2 {
			c = (math.Floor(rng.Float64()*5) - 2) / 4
		}
		// v + s(t-a) + c(t-a)^2, in powers of t.
		ps = append(ps, Piece{Start: a, End: b, P: poly.New(v-s*a+c*a*a, s-2*c*a, c)})
		if !math.IsInf(b, 1) {
			v += s*(b-a) + c*(b-a)*(b-a)
		}
	}
	return MustNew(ps...)
}
