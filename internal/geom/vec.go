// Package geom provides the small vector-geometry kernel used by the
// moving-object database: n-dimensional real vectors with the handful of
// operations the paper's data model needs (addition, scaling, dot products,
// lengths, and unit vectors).
//
// Vectors are ordinary slices so that callers can build them with composite
// literals; all operations allocate fresh results and never alias their
// inputs unless documented otherwise.
package geom

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Vec is a point or direction in R^n. The dimension is len(v).
type Vec []float64

// ErrDimMismatch is returned (or wrapped) when two vectors of different
// dimensions are combined.
var ErrDimMismatch = errors.New("geom: dimension mismatch")

// New returns a zero vector of dimension n.
func New(n int) Vec { return make(Vec, n) }

// Of builds a vector from its components.
func Of(xs ...float64) Vec {
	v := make(Vec, len(xs))
	copy(v, xs)
	return v
}

// Dim reports the dimension of v.
func (v Vec) Dim() int { return len(v) }

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// checkDim panics when u and v have different dimensions. Dimension
// mismatches are programming errors, not data errors: trajectories within
// one MOD always share a dimension, enforced at insertion time.
func checkDim(u, v Vec) {
	if len(u) != len(v) {
		panic(fmt.Sprintf("geom: dimension mismatch: %d vs %d", len(u), len(v)))
	}
}

// Add returns u + v.
func (u Vec) Add(v Vec) Vec {
	checkDim(u, v)
	w := make(Vec, len(u))
	for i := range u {
		w[i] = u[i] + v[i]
	}
	return w
}

// Sub returns u - v.
func (u Vec) Sub(v Vec) Vec {
	checkDim(u, v)
	w := make(Vec, len(u))
	for i := range u {
		w[i] = u[i] - v[i]
	}
	return w
}

// Scale returns c*u.
func (u Vec) Scale(c float64) Vec {
	w := make(Vec, len(u))
	for i := range u {
		w[i] = c * u[i]
	}
	return w
}

// AddScaled returns u + c*v, the fused form used on the hot path of
// trajectory evaluation (x = A(t-t0) + B).
func (u Vec) AddScaled(c float64, v Vec) Vec {
	checkDim(u, v)
	w := make(Vec, len(u))
	for i := range u {
		w[i] = u[i] + c*v[i]
	}
	return w
}

// Dot returns the inner product of u and v.
func (u Vec) Dot(v Vec) float64 {
	checkDim(u, v)
	s := 0.0
	for i := range u {
		s += u[i] * v[i]
	}
	return s
}

// Len returns the Euclidean length of v (the paper's "len" function on
// vectors).
func (v Vec) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Len2 returns the squared Euclidean length. Squared lengths keep
// g-distances polynomial (Example 8 of the paper), so most internal code
// prefers Len2 over Len.
func (v Vec) Len2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between u and v. It sums the
// squared differences in the order u.Sub(v).Len() would, without the
// temporary.
func (u Vec) Dist(v Vec) float64 { return math.Sqrt(u.Dist2(v)) }

// Dist2 returns the squared Euclidean distance between u and v.
func (u Vec) Dist2(v Vec) float64 {
	checkDim(u, v)
	s := 0.0
	for i := range u {
		d := u[i] - v[i]
		s += d * d
	}
	return s
}

// Unit returns v scaled to unit length (the paper's "unit" function).
// The zero vector has no direction; Unit reports an error for it.
func (v Vec) Unit() (Vec, error) {
	l := v.Len()
	if l == 0 { //modlint:allow floatcmp -- exact zero-divisor guard: any nonzero length is divisible
		return nil, errors.New("geom: unit of zero vector")
	}
	return v.Scale(1 / l), nil
}

// IsZero reports whether every component of v is exactly zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether u and v are component-wise identical.
func (u Vec) Equal(v Vec) bool {
	if len(u) != len(v) {
		return false
	}
	for i := range u {
		if u[i] != v[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether u and v agree component-wise within tol.
func (u Vec) ApproxEqual(v Vec, tol float64) bool {
	if len(u) != len(v) {
		return false
	}
	for i := range u {
		if math.Abs(u[i]-v[i]) > tol {
			return false
		}
	}
	return true
}

// String renders v as "(x1, x2, ..., xn)" matching the paper's notation.
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", x)
	}
	b.WriteByte(')')
	return b.String()
}

// Lerp returns the point (1-s)*u + s*v.
func (u Vec) Lerp(v Vec, s float64) Vec {
	checkDim(u, v)
	w := make(Vec, len(u))
	for i := range u {
		w[i] = u[i] + s*(v[i]-u[i])
	}
	return w
}
