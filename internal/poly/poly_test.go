package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewTrims(t *testing.T) {
	p := New(1, 2, 0, 0)
	if p.Degree() != 1 {
		t.Fatalf("Degree = %d, want 1", p.Degree())
	}
	if !New(0, 0).IsZero() {
		t.Error("all-zero should be zero polynomial")
	}
	if Constant(0).Degree() != -1 {
		t.Error("Constant(0) should be zero polynomial")
	}
}

func TestEvalHorner(t *testing.T) {
	p := New(3, -1, 2) // 3 - t + 2t^2
	if got := p.Eval(2); got != 9 {
		t.Errorf("Eval(2) = %g, want 9", got)
	}
	if got := p.Eval(0); got != 3 {
		t.Errorf("Eval(0) = %g, want 3", got)
	}
	v, dv := p.EvalWithDeriv(2)
	if v != 9 || dv != 7 {
		t.Errorf("EvalWithDeriv(2) = %g,%g want 9,7", v, dv)
	}
}

func TestArithmetic(t *testing.T) {
	p := New(1, 1)  // 1 + t
	q := New(-1, 1) // -1 + t
	if got := p.Add(q); !got.Equal(New(0, 2)) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); !got.Equal(New(2)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Mul(q); !got.Equal(New(-1, 0, 1)) {
		t.Errorf("Mul = %v", got)
	}
	if got := p.Neg(); !got.Equal(New(-1, -1)) {
		t.Errorf("Neg = %v", got)
	}
	if got := p.Scale(3); !got.Equal(New(3, 3)) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDerivative(t *testing.T) {
	p := New(5, 3, 0, 2) // 5 + 3t + 2t^3
	if got := p.Derivative(); !got.Equal(New(3, 0, 6)) {
		t.Errorf("Derivative = %v", got)
	}
	if !Constant(7).Derivative().IsZero() {
		t.Error("derivative of constant should be zero")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		p    Poly
		want string
	}{
		{Poly{}, "0"},
		{New(3), "3"},
		{New(0, -1, 2), "2t^2 - t"},
		{New(-3, 1), "t - 3"},
		{New(0, 0, 1), "t^2"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", []float64(c.p), got, c.want)
		}
	}
}

func TestQuadraticRoots(t *testing.T) {
	rs := quadraticRoots(1, -3, 2) // (t-1)(t-2)
	if len(rs) != 2 || math.Abs(rs[0]-1) > 1e-12 || math.Abs(rs[1]-2) > 1e-12 {
		t.Errorf("roots = %v", rs)
	}
	if rs := quadraticRoots(1, 0, 1); len(rs) != 0 {
		t.Errorf("t^2+1 roots = %v", rs)
	}
	rs = quadraticRoots(1, -2, 1) // (t-1)^2
	if len(rs) != 1 || math.Abs(rs[0]-1) > 1e-12 {
		t.Errorf("double root = %v", rs)
	}
	// Catastrophic-cancellation regime: large b.
	rs = quadraticRoots(1, -1e8, 1)
	if len(rs) != 2 {
		t.Fatalf("roots = %v", rs)
	}
	if math.Abs(rs[0]-1e-8) > 1e-14 {
		t.Errorf("small root = %g, want 1e-8", rs[0])
	}
}

func TestRootsInLinear(t *testing.T) {
	p := New(-6, 2) // 2t - 6
	rs, ok := p.RootsIn(0, 10)
	if !ok || len(rs) != 1 || math.Abs(rs[0]-3) > 1e-9 {
		t.Errorf("roots = %v ok=%v", rs, ok)
	}
	rs, _ = p.RootsIn(4, 10)
	if len(rs) != 0 {
		t.Errorf("roots outside window = %v", rs)
	}
}

func TestRootsInCubic(t *testing.T) {
	p := FromRoots(1, 4, 9)
	rs, ok := p.RootsIn(0, 10)
	if !ok || len(rs) != 3 {
		t.Fatalf("roots = %v ok=%v", rs, ok)
	}
	for i, want := range []float64{1, 4, 9} {
		if math.Abs(rs[i]-want) > 1e-7 {
			t.Errorf("root[%d] = %g, want %g", i, rs[i], want)
		}
	}
}

func TestRootsInWindow(t *testing.T) {
	p := FromRoots(-5, 0, 5)
	rs, _ := p.RootsIn(-1, 6)
	if len(rs) != 2 {
		t.Fatalf("roots = %v, want 2 in [-1,6]", rs)
	}
	if math.Abs(rs[0]) > 1e-8 || math.Abs(rs[1]-5) > 1e-8 {
		t.Errorf("roots = %v", rs)
	}
}

func TestRootsWithMultiplicity(t *testing.T) {
	// (t-2)^2 (t-7): distinct roots {2, 7}
	p := FromRoots(2, 2, 7)
	rs, _ := p.RootsIn(0, 10)
	if len(rs) != 2 {
		t.Fatalf("roots = %v, want 2 distinct", rs)
	}
	if math.Abs(rs[0]-2) > 1e-7 || math.Abs(rs[1]-7) > 1e-7 {
		t.Errorf("roots = %v", rs)
	}
}

func TestRootsZeroPoly(t *testing.T) {
	if _, ok := (Poly{}).RootsIn(0, 1); ok {
		t.Error("zero polynomial should report ok=false")
	}
}

func TestRootAtEndpoint(t *testing.T) {
	p := FromRoots(0, 3, 8)
	rs, _ := p.RootsIn(0, 8)
	if len(rs) != 3 {
		t.Fatalf("roots = %v, want endpoints included", rs)
	}
}

func TestFirstRootAfter(t *testing.T) {
	p := FromRoots(2, 5, 11)
	r, ok := p.FirstRootAfter(0, 100)
	if !ok || math.Abs(r-2) > 1e-7 {
		t.Errorf("first root = %g ok=%v, want 2", r, ok)
	}
	r, ok = p.FirstRootAfter(2, 100)
	if !ok || math.Abs(r-5) > 1e-7 {
		t.Errorf("first root after 2 = %g ok=%v, want 5 (strictness)", r, ok)
	}
	if _, ok := p.FirstRootAfter(11, 100); ok {
		t.Error("no root after 11 expected")
	}
	if _, ok := p.FirstRootAfter(0, 1); ok {
		t.Error("no root before hi=1 expected")
	}
}

func TestSignAfterBefore(t *testing.T) {
	// p = (t-3)^2 touches zero at 3 from above: sign before/after both +1.
	p := FromRoots(3, 3)
	if s := p.SignAfter(3); s != 1 {
		t.Errorf("SignAfter tangent = %d, want 1", s)
	}
	if s := p.SignBefore(3); s != 1 {
		t.Errorf("SignBefore tangent = %d, want 1", s)
	}
	// q = t - 3 crosses: before -1, after +1.
	q := New(-3, 1)
	if s := q.SignAfter(3); s != 1 {
		t.Errorf("SignAfter cross = %d", s)
	}
	if s := q.SignBefore(3); s != -1 {
		t.Errorf("SignBefore cross = %d", s)
	}
	// cubic crossing with zero derivative: (t-1)^3.
	c := FromRoots(1, 1, 1)
	if s := c.SignAfter(1); s != 1 {
		t.Errorf("cubic SignAfter = %d", s)
	}
	if s := c.SignBefore(1); s != -1 {
		t.Errorf("cubic SignBefore = %d", s)
	}
	if s := (Poly{}).SignAfter(0); s != 0 {
		t.Errorf("zero poly SignAfter = %d", s)
	}
}

func TestSignAt(t *testing.T) {
	p := New(-4, 0, 1) // t^2 - 4
	if p.SignAt(3) != 1 || p.SignAt(0) != -1 || p.SignAt(2) != 0 {
		t.Errorf("SignAt wrong: %d %d %d", p.SignAt(3), p.SignAt(0), p.SignAt(2))
	}
}

func TestRootBound(t *testing.T) {
	p := FromRoots(1, -17, 3)
	b := p.RootBound()
	if b < 17 {
		t.Errorf("RootBound = %g too small", b)
	}
}

// Property: for random root sets, RootsIn recovers them.
func TestRootRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		roots := make([]float64, n)
		for i := range roots {
			roots[i] = math.Round(rng.Float64()*2000-1000) / 10 // spaced on 0.1 grid
		}
		// Deduplicate to keep roots distinct and separated.
		seen := map[float64]bool{}
		var uniq []float64
		for _, r := range roots {
			if !seen[r] {
				seen[r] = true
				uniq = append(uniq, r)
			}
		}
		p := FromRoots(uniq...)
		got, ok := p.RootsIn(-200, 200)
		if !ok {
			t.Fatalf("trial %d: unexpected zero poly", trial)
		}
		if len(got) != len(uniq) {
			t.Fatalf("trial %d: got %d roots %v, want %d (roots %v)", trial, len(got), got, len(uniq), uniq)
		}
		for _, r := range got {
			best := math.Inf(1)
			for _, w := range uniq {
				if d := math.Abs(r - w); d < best {
					best = d
				}
			}
			if best > 1e-6 {
				t.Fatalf("trial %d: spurious root %g (true roots %v)", trial, r, uniq)
			}
		}
	}
}

// Property: Eval distributes over Add and Mul.
func TestEvalHomomorphism(t *testing.T) {
	f := func(a0, a1, a2, b0, b1, x float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 100)
		}
		p := New(clamp(a0), clamp(a1), clamp(a2))
		q := New(clamp(b0), clamp(b1))
		xx := clamp(x)
		sum := p.Add(q).Eval(xx)
		prod := p.Mul(q).Eval(xx)
		scale := math.Max(1, math.Abs(p.Eval(xx))+math.Abs(q.Eval(xx)))
		okSum := math.Abs(sum-(p.Eval(xx)+q.Eval(xx))) < 1e-8*scale
		okProd := math.Abs(prod-p.Eval(xx)*q.Eval(xx)) < 1e-6*scale*scale
		return okSum && okProd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalDeg2(b *testing.B) {
	p := New(1, -2, 3)
	for i := 0; i < b.N; i++ {
		_ = p.Eval(float64(i % 100))
	}
}

func BenchmarkQuadraticRoots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = quadraticRoots(1, -3, 2)
	}
}

func BenchmarkRootsInDeg6(b *testing.B) {
	p := FromRoots(1, 2, 3, 4, 5, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.RootsIn(0, 10)
	}
}

// TestAppendRootsInAllocatesNothing: with room in dst, isolating the
// roots of a sweep-sized polynomial works on the stack alone, and
// appends exactly what RootsIn returns.
func TestAppendRootsInAllocatesNothing(t *testing.T) {
	for _, p := range []Poly{
		FromRoots(1, 2),
		FromRoots(-1, 0.5, 3),
		FromRoots(-2, -1, 1, 2),
		FromRoots(1, 1, 4, 7), // a tangency
		FromRoots(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 1.1),
		New(1, 0, 0, 0, 1), // no real root
	} {
		want, _ := p.RootsIn(-10, 10)
		dst := make([]float64, 1, 16)
		var got []float64
		allocs := testing.AllocsPerRun(10, func() { got, _ = p.AppendRootsIn(dst, -10, 10) })
		if allocs != 0 {
			t.Errorf("%v: %v allocations", p, allocs)
		}
		if len(got) != 1+len(want) {
			t.Fatalf("%v: appended %v, RootsIn %v", p, got[1:], want)
		}
		for i, r := range want {
			if math.Float64bits(got[1+i]) != math.Float64bits(r) {
				t.Errorf("%v: root %d appended as %v, RootsIn %v", p, i, got[1+i], r)
			}
		}
	}
	// Past the stack bound the same code runs on heap storage.
	long := FromRoots(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)
	if roots, ok := long.RootsIn(0, 14); !ok || len(roots) != 13 {
		t.Errorf("degree 13: roots %v ok %v", roots, ok)
	}
}

// quadraticRoots is quadRoots as a slice, for the tests that read it so.
func quadraticRoots(a, b, c float64) []float64 {
	r1, r2, n := quadRoots(a, b, c)
	switch n {
	case 0:
		return nil
	case 1:
		return []float64{r1}
	default:
		return []float64{r1, r2}
	}
}
