package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestOfAndClone(t *testing.T) {
	v := Of(1, 2, 3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliases input: v[0] = %g", v[0])
	}
}

func TestAddSubScale(t *testing.T) {
	u := Of(1, 2, 3)
	v := Of(4, 5, 6)
	if got := u.Add(v); !got.Equal(Of(5, 7, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(u); !got.Equal(Of(3, 3, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := u.Scale(2); !got.Equal(Of(2, 4, 6)) {
		t.Errorf("Scale = %v", got)
	}
	if got := u.AddScaled(2, v); !got.Equal(Of(9, 12, 15)) {
		t.Errorf("AddScaled = %v", got)
	}
}

func TestDotLen(t *testing.T) {
	u := Of(3, 4)
	if got := u.Len(); !almostEq(got, 5) {
		t.Errorf("Len = %g, want 5", got)
	}
	if got := u.Len2(); !almostEq(got, 25) {
		t.Errorf("Len2 = %g, want 25", got)
	}
	if got := u.Dot(Of(1, 1)); !almostEq(got, 7) {
		t.Errorf("Dot = %g, want 7", got)
	}
}

func TestDist(t *testing.T) {
	u, v := Of(0, 0), Of(3, 4)
	if got := u.Dist(v); !almostEq(got, 5) {
		t.Errorf("Dist = %g, want 5", got)
	}
	if got := u.Dist2(v); !almostEq(got, 25) {
		t.Errorf("Dist2 = %g, want 25", got)
	}
}

func TestUnit(t *testing.T) {
	u, err := Of(0, 3).Unit()
	if err != nil {
		t.Fatalf("Unit: %v", err)
	}
	if !u.ApproxEqual(Of(0, 1), 1e-12) {
		t.Errorf("Unit = %v", u)
	}
	if _, err := Of(0, 0).Unit(); err == nil {
		t.Error("Unit of zero vector should fail")
	}
}

func TestIsZeroEqual(t *testing.T) {
	if !New(3).IsZero() {
		t.Error("New(3) not zero")
	}
	if Of(0, 1).IsZero() {
		t.Error("(0,1) reported zero")
	}
	if Of(1, 2).Equal(Of(1, 2, 3)) {
		t.Error("vectors of different dims reported equal")
	}
	if !Of(1, 2).ApproxEqual(Of(1+1e-13, 2), 1e-12) {
		t.Error("ApproxEqual too strict")
	}
}

func TestString(t *testing.T) {
	if got := Of(2, -1, 0).String(); got != "(2, -1, 0)" {
		t.Errorf("String = %q", got)
	}
}

func TestLerp(t *testing.T) {
	u, v := Of(0, 0), Of(10, 20)
	if got := u.Lerp(v, 0.5); !got.ApproxEqual(Of(5, 10), 1e-12) {
		t.Errorf("Lerp = %v", got)
	}
	if got := u.Lerp(v, 0); !got.Equal(u) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := u.Lerp(v, 1); !got.Equal(v) {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	Of(1, 2).Add(Of(1, 2, 3))
}

// Property: |u+v|^2 + |u-v|^2 == 2|u|^2 + 2|v|^2 (parallelogram law).
func TestParallelogramLaw(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		// Clamp magnitudes so the law holds to relative precision.
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 1e6)
		}
		u := Of(clamp(a), clamp(b))
		v := Of(clamp(c), clamp(d))
		lhs := u.Add(v).Len2() + u.Sub(v).Len2()
		rhs := 2*u.Len2() + 2*v.Len2()
		scale := math.Max(1, math.Abs(rhs))
		return math.Abs(lhs-rhs) < 1e-9*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |u.v| <= |u||v|.
func TestCauchySchwarz(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 1e6)
		}
		u := Of(clamp(a), clamp(b))
		v := Of(clamp(c), clamp(d))
		return math.Abs(u.Dot(v)) <= u.Len()*v.Len()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDistAllocatesNothing: Dist is on the bead kernel's innermost
// loop, and used to build the difference vector to measure it.
func TestDistAllocatesNothing(t *testing.T) {
	u, v := Of(1, 2, 3), Of(4, 6, 3)
	var d float64
	if allocs := testing.AllocsPerRun(100, func() { d = u.Dist(v) }); allocs != 0 {
		t.Errorf("Dist: %v allocations, want 0", allocs)
	}
	// The same operations in the same order as the difference's length.
	if want := u.Sub(v).Len(); math.Float64bits(d) != math.Float64bits(want) {
		t.Errorf("Dist = %v, Sub.Len = %v", d, want)
	}
}
