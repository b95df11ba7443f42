package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: ScaleInPlace then ScaleInPlace(1/alpha) restores within
// floating tolerance.
func TestQuickScaleRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		alpha := 0.5 + rng.Float64()*4
		a := Randn(rng, 1, n)
		orig := a.Clone()
		a.ScaleInPlace(alpha)
		a.ScaleInPlace(1 / alpha)
		for i := range orig.Data {
			if math.Abs(a.Data[i]-orig.Data[i]) > 1e-12*(1+math.Abs(orig.Data[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
