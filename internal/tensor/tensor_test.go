package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size() = %d, want 24", x.Size())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank() = %d, want 3", x.Rank())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %g, want 0", i, v)
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %g, want 1", got)
	}
	if got := x.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %g, want 6", got)
	}
	x.Set(42, 1, 0)
	if got := x.At(1, 0); got != 42 {
		t.Errorf("after Set, At(1,0) = %g, want 42", got)
	}
}

// TestAtSetDoNotAllocate pins the index slice of the variadic accessors
// to the caller's stack: the hot feature paths call them per cell.
func TestAtSetDoNotAllocate(t *testing.T) {
	x := New(3, 4, 5)
	i, j, k := 2, 3, 4
	if n := testing.AllocsPerRun(100, func() { _ = x.At(i, j, k) }); n != 0 {
		t.Errorf("At allocates %.0f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { x.Set(1, i, j, k) }); n != 0 {
		t.Errorf("Set allocates %.0f times per call, want 0", n)
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched size")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	_ = x.At(2, 0)
}

func TestReshape(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Errorf("reshaped At(2,1) = %g, want 6", y.At(2, 1))
	}
	// Shared storage.
	y.Set(-1, 0, 0)
	if x.At(0, 0) != -1 {
		t.Error("Reshape must share storage")
	}
	// Inferred dimension.
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Errorf("inferred dim = %d, want 3", z.Dim(0))
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := a.Clone().ScaleInPlace(2).Data; got[1] != 4 {
		t.Errorf("ScaleInPlace = %v", got)
	}
	c := a.Clone()
	c.AddScaledInPlace(0.5, b)
	if c.Data[0] != 6 {
		t.Errorf("AddScaledInPlace = %v", c.Data)
	}
	if a.Data[0] != 1 {
		t.Error("Clone must not alias")
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-1, 3, 2, -4}, 4)
	if x.AbsMax() != 4 {
		t.Errorf("AbsMax = %g", x.AbsMax())
	}
	if x.ArgMax() != 1 {
		t.Errorf("ArgMax = %d", x.ArgMax())
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := a.MatMul(b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 3), New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner-dim mismatch")
		}
	}()
	a.MatMul(b)
}

// naiveMatMul is a reference j-inner implementation to cross-check the
// cache-friendly one.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		got, want := a.MatMul(b), naiveMatMul(a, b)
		for i := range want.Data {
			if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
				t.Fatalf("trial %d: MatMul[%d] = %g, want %g", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][]int{{}, {1}, {5}, {2, 3}, {3, 4, 5}} {
		x := Randn(rng, 2, shape...)
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo(%v): %v", shape, err)
		}
		var y Tensor
		if _, err := y.ReadFrom(&buf); err != nil {
			t.Fatalf("ReadFrom(%v): %v", shape, err)
		}
		if !x.SameShape(&y) {
			t.Fatalf("round-trip shape %v != %v", x.Shape, y.Shape)
		}
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				t.Fatalf("round-trip data[%d] %g != %g", i, x.Data[i], y.Data[i])
			}
		}
	}
}

func TestSerializeBadMagic(t *testing.T) {
	var y Tensor
	if _, err := y.ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestRandnStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := Randn(rng, 2, 10000)
	mean, ss := 0.0, 0.0
	for _, v := range x.Data {
		mean += v / float64(x.Size())
	}
	for _, v := range x.Data {
		ss += (v - mean) * (v - mean)
	}
	std := math.Sqrt(ss / float64(x.Size()))
	if math.Abs(mean) > 0.1 {
		t.Errorf("Randn mean = %g, want ≈0", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("Randn std = %g, want ≈2", std)
	}
}

// Property: MatMul distributes over addition: A@(B+C) == A@B + A@C.
func TestQuickMatMulDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		m, k, n := 1+local.Intn(6), 1+local.Intn(6), 1+local.Intn(6)
		a := Randn(local, 1, m, k)
		b := Randn(local, 1, k, n)
		c := Randn(local, 1, k, n)
		bc := b.Clone().AddScaledInPlace(1, c)
		l := a.MatMul(bc)
		r := a.MatMul(b).AddScaledInPlace(1, a.MatMul(c))
		for i := range l.Data {
			if !almostEqual(l.Data[i], r.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	small := New(2, 2)
	big := New(100)
	if small.String() == "" || big.String() == "" {
		t.Error("String() returned empty")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := Randn(rng, 1, 64, 64)
	y := Randn(rng, 1, 64, 64)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulInto(dst.Data, x.Data, y.Data, 64, 64, 64)
	}
}
