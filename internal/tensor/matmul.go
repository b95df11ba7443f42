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
