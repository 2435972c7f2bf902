// Package mat provides the linear-algebra substrate used by the PriSTE
// quantifier: row-major matrices and vectors, the row primitive behind
// every dense product (rowmul.go), compressed-sparse-row kernels,
// Hadamard products and diagonal scaling.
//
// The package is deliberately small and allocation-conscious: the PriSTE
// release loop multiplies m×m matrices at every committed timestamp, so
// all hot operations offer an "into destination" form that reuses
// storage. It holds only what the engine, its tests and the benchmark
// harness call.
//
// Every product that feeds an add is written float64(x*y). The explicit
// conversion is how the Go spec forbids fusing it into one multiply-add,
// which gc does on arm64 and never on amd64; without it a release would
// depend on the machine.
package mat

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector. The zero value is an empty vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Ones returns a vector of length n with every element set to 1.
func Ones(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product of v and w.
// It panics if the lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += float64(x * w[i])
	}
	return s
}

// Sum returns the sum of all elements.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Max returns the maximum element, or -Inf for an empty vector.
func (v Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum element, or +Inf for an empty vector.
func (v Vector) Min() float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

// AbsMax returns the maximum absolute element, or 0 for an empty vector.
func (v Vector) AbsMax() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Scale multiplies every element by c in place and returns v.
func (v Vector) Scale(c float64) Vector {
	for i := range v {
		v[i] *= c
	}
	return v
}

// AddInto stores v+w into dst and returns dst. dst may alias v or w.
func (v Vector) AddInto(dst, w Vector) Vector {
	checkLen3(len(dst), len(v), len(w))
	for i := range v {
		dst[i] = v[i] + w[i]
	}
	return dst
}

// HadamardInto stores the elementwise product v∘w into dst and returns dst.
func (v Vector) HadamardInto(dst, w Vector) Vector {
	checkLen3(len(dst), len(v), len(w))
	for i := range v {
		dst[i] = v[i] * w[i]
	}
	return dst
}

// Hadamard returns a new vector holding v∘w.
func (v Vector) Hadamard(w Vector) Vector {
	return v.HadamardInto(NewVector(len(v)), w)
}

// Normalize scales v in place so it sums to 1 and returns the original sum.
// A zero (or numerically zero) vector is left unchanged and 0 is returned.
func (v Vector) Normalize() float64 {
	s := v.Sum()
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return 0
	}
	v.Scale(1 / s)
	return s
}

// EqualApprox reports whether v and w have the same length and every pair of
// elements differs by at most tol.
func (v Vector) EqualApprox(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// IsDistribution reports whether v is a probability distribution: all
// elements non-negative and summing to 1 within tol.
func (v Vector) IsDistribution(tol float64) bool {
	for _, x := range v {
		if x < -tol || math.IsNaN(x) {
			return false
		}
	}
	return math.Abs(v.Sum()-1) <= tol
}

// ArgMax returns the index of the largest element (-1 for empty).
func (v Vector) ArgMax() int {
	best, bi := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

func checkLen3(a, b, c int) {
	if a != b || b != c {
		panic(fmt.Sprintf("mat: length mismatch %d, %d, %d", a, b, c))
	}
}
