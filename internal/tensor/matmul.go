package tensor

import (
	"fmt"
	"sync/atomic"
)

// Kernel op accounting: every matmul-family call bumps two process-global
// atomics (call count and multiply-accumulate count). Two uncontended
// atomic adds per kernel call are noise next to the O(m·k·n) work, and
// they give the runtime telemetry an accelerator-utilisation signal
// (MACs/s) without this package importing anything.
var (
	matmulCalls atomic.Int64
	matmulMACs  atomic.Int64
)

// OpStats returns the cumulative matmul-family call and multiply-
// accumulate counts for the process.
func OpStats() (calls, macs int64) {
	return matmulCalls.Load(), matmulMACs.Load()
}

func countMatMul(m, k, n int) {
	matmulCalls.Add(1)
	matmulMACs.Add(int64(m) * int64(k) * int64(n))
}

// MatMul returns the matrix product t @ u. t must be (m, k) and u (k, n);
// the result is (m, n). The inner loops are ordered i-k-j so the innermost
// loop streams both the u row and the output row, which is the cache-friendly
// form for row-major storage.
func (t *Tensor) MatMul(u *Tensor) *Tensor {
	m, k, n := checkMatMul(t, u)
	out := New(m, n)
	matMulInto(out.Data, t.Data, u.Data, m, k, n)
	return out
}

func checkMatMul(t, u *Tensor) (m, k, n int) {
	if len(t.Shape) != 2 || len(u.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 operands, got %v and %v", t.Shape, u.Shape))
	}
	m, k = t.Shape[0], t.Shape[1]
	if u.Shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v @ %v", t.Shape, u.Shape))
	}
	n = u.Shape[1]
	return m, k, n
}

func matMulInto(dst, a, b []float64, m, k, n int) {
	countMatMul(m, k, n)
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulAccInto computes dst += t @ u, reusing dst's storage.
func (t *Tensor) MatMulAccInto(dst, u *Tensor) *Tensor {
	m, k, n := checkMatMul(t, u)
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAccInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	countMatMul(m, k, n)
	a, b, d := t.Data, u.Data, dst.Data
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := d[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// T2 returns the transpose of a rank-2 tensor.
func (t *Tensor) T2() *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: T2 needs a rank-2 tensor, got %v", t.Shape))
	}
	m, n := t.Shape[0], t.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j, v := range row {
			out.Data[j*m+i] = v
		}
	}
	return out
}

// MatVec returns t @ v for a (m, k) matrix and a length-k vector, as a
// length-m rank-1 tensor.
func (t *Tensor) MatVec(v *Tensor) *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatVec needs a rank-2 matrix, got %v", t.Shape))
	}
	m, k := t.Shape[0], t.Shape[1]
	if v.Size() != k {
		panic(fmt.Sprintf("tensor: MatVec vector size %d, want %d", v.Size(), k))
	}
	countMatMul(m, k, 1)
	out := New(m)
	for i := 0; i < m; i++ {
		row := t.Data[i*k : (i+1)*k]
		s := 0.0
		for j, w := range row {
			s += w * v.Data[j]
		}
		out.Data[i] = s
	}
	return out
}

// AddRowVectorInPlace adds the length-n vector v to every row of the (m, n)
// matrix t and returns t. Used for bias addition.
func (t *Tensor) AddRowVectorInPlace(v *Tensor) *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: AddRowVectorInPlace needs rank-2, got %v", t.Shape))
	}
	m, n := t.Shape[0], t.Shape[1]
	if v.Size() != n {
		panic(fmt.Sprintf("tensor: AddRowVectorInPlace vector size %d, want %d", v.Size(), n))
	}
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] += v.Data[j]
		}
	}
	return t
}

// SumRows returns the length-n vector of column sums of the (m, n) matrix t
// (i.e. the sum over rows). Used for bias gradients.
func (t *Tensor) SumRows() *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRows needs rank-2, got %v", t.Shape))
	}
	m, n := t.Shape[0], t.Shape[1]
	out := New(n)
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// Row returns row i of a rank-2 tensor as a rank-1 tensor sharing storage.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Row needs rank-2, got %v", t.Shape))
	}
	n := t.Shape[1]
	return &Tensor{Data: t.Data[i*n : (i+1)*n], Shape: []int{n}}
}

// Outer returns the outer product a ⊗ b of two vectors as an (len(a), len(b))
// matrix.
func Outer(a, b *Tensor) *Tensor {
	m, n := a.Size(), b.Size()
	out := New(m, n)
	for i := 0; i < m; i++ {
		av := a.Data[i]
		if av == 0 {
			continue
		}
		row := out.Data[i*n : (i+1)*n]
		for j, bv := range b.Data {
			row[j] = av * bv
		}
	}
	return out
}

// OuterAccInto accumulates dst += a ⊗ b.
func OuterAccInto(dst, a, b *Tensor) *Tensor {
	m, n := a.Size(), b.Size()
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: OuterAccInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	for i := 0; i < m; i++ {
		av := a.Data[i]
		if av == 0 {
			continue
		}
		row := dst.Data[i*n : (i+1)*n]
		for j, bv := range b.Data {
			row[j] += av * bv
		}
	}
	return dst
}
