// Package tensor provides dense, row-major float64 tensors and the linear
// algebra primitives the rest of the repository builds on: element-wise
// arithmetic, matrix multiplication, reductions, random initialisation and a
// compact binary serialisation format used by model checkpoints.
//
// Tensors are always contiguous in memory. Reshape is therefore free, and
// every operation that produces a tensor allocates a fresh backing slice
// unless its name ends in "InPlace" or it is documented to reuse storage.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major, contiguous float64 tensor.
type Tensor struct {
	// Data holds the elements in row-major order. len(Data) == Size().
	Data []float64
	// Shape holds the extent of each dimension. A scalar has Shape []int{}.
	Shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := sizeOf(shape)
	return &Tensor{Data: make([]float64, n), Shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not alias it afterwards unless that
// sharing is intended.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := sizeOf(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (size %d)", len(data), shape, n))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Randn returns a tensor with elements drawn from N(0, stddev²) using rng.
func Randn(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * stddev
	}
	return t
}

func sizeOf(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if u.Shape[i] != d {
			return false
		}
	}
	return true
}

// offset computes the flat index for idx, checking bounds. The panic
// messages format a copy of idx, so idx itself never escapes and the
// variadic At/Set calls keep their index slice on the caller's stack.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", append([]int(nil), idx...), t.Shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", append([]int(nil), idx...), t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape. One
// dimension may be -1, in which case it is inferred. Panics if the total
// size differs.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping size %d to %v", len(t.Data), shape))
		}
		shape[infer] = len(t.Data) / known
	}
	if sizeOf(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: Reshape size mismatch: %d to %v", len(t.Data), shape))
	}
	return &Tensor{Data: t.Data, Shape: shape}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// AddScaledInPlace sets t = t + alpha*u and returns t (axpy).
func (t *Tensor) AddScaledInPlace(alpha float64, u *Tensor) *Tensor {
	t.mustMatch(u, "AddScaledInPlace")
	for i := range t.Data {
		t.Data[i] += alpha * u.Data[i]
	}
	return t
}

// ScaleInPlace sets t = alpha*t and returns t.
func (t *Tensor) ScaleInPlace(alpha float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
	return t
}

func (t *Tensor) mustMatch(u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.Shape, u.Shape))
	}
}

// AbsMax returns max(|t|) over all elements, or 0 for an empty tensor.
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element. Panics on empty.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// String renders a short human-readable description of t.
func (t *Tensor) String() string {
	if t.Size() <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%g %g … %g]", t.Shape, t.Data[0], t.Data[1], t.Data[len(t.Data)-1])
}
