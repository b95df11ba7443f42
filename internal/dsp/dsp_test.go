package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSine(t *testing.T) {
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*4*float64(i)/n), 0)
	}
	FFT(x)
	// Energy must concentrate at bins 4 and n-4.
	for i, v := range x {
		m := cmplx.Abs(v)
		if i == 4 || i == n-4 {
			if math.Abs(m-n/2) > 1e-9 {
				t.Errorf("bin %d magnitude = %g, want %g", i, m, float64(n)/2)
			}
		} else if m > 1e-9 {
			t.Errorf("bin %d magnitude = %g, want ~0", i, m)
		}
	}
}

func TestFFTNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	FFT(make([]complex128, 6))
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 128)
	orig := make([]complex128, len(x))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = x[i]
	}
	FFT(x)
	// The inverse through the forward transform: conj(FFT(conj(X))) / n.
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	FFT(x)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / complex(float64(len(x)), 0)
		if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
			t.Fatalf("round trip [%d]: %v != %v", i, x[i], orig[i])
		}
	}
}

// Property: Parseval — sum |x|² == (1/N) sum |X|².
func TestQuickParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(4))
		x := make([]complex128, n)
		tsum := 0.0
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			tsum += real(x[i]) * real(x[i])
		}
		FFT(x)
		fsum := 0.0
		for _, v := range x {
			fsum += real(v)*real(v) + imag(v)*imag(v)
		}
		fsum /= float64(n)
		return math.Abs(tsum-fsum) < 1e-8*(1+tsum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: FFT linearity.
func TestQuickFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		a := make([]complex128, n)
		b := make([]complex128, n)
		s := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), 0)
			b[i] = complex(rng.NormFloat64(), 0)
			s[i] = a[i] + 2*b[i]
		}
		FFT(a)
		FFT(b)
		FFT(s)
		for i := range s {
			if cmplx.Abs(s[i]-(a[i]+2*b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestWelchPeak(t *testing.T) {
	// 5 Hz sine at fs=100 → PSD peak near 5 Hz.
	fs := 100.0
	x := make([]float64, 1024)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 5 * float64(i) / fs)
	}
	psd := Welch(x, fs, 256)
	if pf := psd.PeakFrequency(0.5, 50); math.Abs(pf-5) > 0.5 {
		t.Errorf("peak frequency = %g, want ≈5", pf)
	}
	// Band power around the tone dominates the rest.
	inBand := psd.BandPower(4, 6)
	outBand := psd.BandPower(10, 40)
	if inBand < 10*outBand {
		t.Errorf("band power in=%g out=%g: tone not concentrated", inBand, outBand)
	}
}

func TestWelchTotalPowerApproxVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fs := 50.0
	x := make([]float64, 4096)
	va := 0.0
	for i := range x {
		x[i] = rng.NormFloat64()
		va += x[i] * x[i]
	}
	va /= float64(len(x))
	psd := Welch(x, fs, 256)
	tp := psd.BandPower(psd.Freqs[0], psd.Freqs[len(psd.Freqs)-1])
	if tp < va/3 || tp > va*3 {
		t.Errorf("total power %g not within 3x of variance %g", tp, va)
	}
}

func TestWelchEmptyAndShort(t *testing.T) {
	if p := Welch(nil, 10, 64); len(p.Freqs) != 0 {
		t.Error("empty input should yield empty PSD")
	}
	p := Welch([]float64{1, 2, 3}, 10, 64)
	if len(p.Freqs) == 0 {
		t.Error("short input should still yield a PSD via zero-padding")
	}
}

func TestSpectralEntropy(t *testing.T) {
	fs := 100.0
	tone := make([]float64, 2048)
	for i := range tone {
		tone[i] = math.Sin(2 * math.Pi * 10 * float64(i) / fs)
	}
	rng := rand.New(rand.NewSource(3))
	noise := make([]float64, 2048)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	eTone := Welch(tone, fs, 256).SpectralEntropy(0.5, 45)
	eNoise := Welch(noise, fs, 256).SpectralEntropy(0.5, 45)
	if eTone >= eNoise {
		t.Errorf("entropy of tone (%g) should be below noise (%g)", eTone, eNoise)
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 1, 10, 1, 1}
	y := MovingAverage(x, 3)
	if y[2] != 4 {
		t.Errorf("MovingAverage centre = %g, want 4", y[2])
	}
	if y[0] != 1 {
		t.Errorf("MovingAverage edge = %g, want 1", y[0])
	}
	if got := MovingAverage(x, 0); got[2] != 10 {
		t.Errorf("window clamp failed: %v", got)
	}
}

func TestDetrendRemovesLine(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 3 + 0.5*float64(i)
	}
	y := Detrend(x)
	for i, v := range y {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("Detrend residual[%d] = %g, want 0", i, v)
		}
	}
}

func TestDetrendPreservesOscillation(t *testing.T) {
	x := make([]float64, 200)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*float64(i)/20) + 0.1*float64(i)
	}
	y := Detrend(x)
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	if math.Abs(mean) > 1e-9 {
		t.Errorf("Detrend mean = %g, want 0", mean)
	}
	ss := 0.0
	for _, v := range y {
		ss += v * v
	}
	if ss/float64(len(y)) < 0.3 {
		t.Errorf("Detrend removed oscillation: power %g", ss/float64(len(y)))
	}
}

func TestLowpassAttenuatesHighFreq(t *testing.T) {
	fs := 100.0
	x := make([]float64, 2048)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*1*ti) + math.Sin(2*math.Pi*30*ti)
	}
	y := LowpassBiquad(5, fs).Filter(x)
	psd := Welch(y[256:], fs, 512)
	lo := psd.BandPower(0.5, 2)
	hi := psd.BandPower(25, 35)
	if lo < 20*hi {
		t.Errorf("lowpass failed: low band %g, high band %g", lo, hi)
	}
}

func TestHighpassAttenuatesLowFreq(t *testing.T) {
	fs := 100.0
	x := make([]float64, 2048)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*0.2*ti) + math.Sin(2*math.Pi*10*ti)
	}
	y := HighpassBiquad(2, fs).Filter(x)
	psd := Welch(y[256:], fs, 512)
	lo := psd.BandPower(0.05, 0.5)
	hi := psd.BandPower(8, 12)
	if hi < 20*lo {
		t.Errorf("highpass failed: low band %g, high band %g", lo, hi)
	}
}

func TestBandpass(t *testing.T) {
	fs := 100.0
	x := make([]float64, 4096)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*0.1*ti) + math.Sin(2*math.Pi*5*ti) + math.Sin(2*math.Pi*40*ti)
	}
	y := Bandpass(x, 1, 10, fs)
	psd := Welch(y[512:], fs, 512)
	mid := psd.BandPower(4, 6)
	if mid < 10*psd.BandPower(30, 45) || mid < 10*psd.BandPower(0.02, 0.3) {
		t.Error("bandpass did not isolate the mid band")
	}
}

func TestResample(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := Resample(x, 7)
	if len(y) != 7 {
		t.Fatalf("Resample length %d", len(y))
	}
	if y[0] != 0 || y[6] != 3 {
		t.Errorf("Resample endpoints %g, %g", y[0], y[6])
	}
	if math.Abs(y[3]-1.5) > 1e-12 {
		t.Errorf("Resample midpoint %g, want 1.5", y[3])
	}
	if got := Resample([]float64{5}, 3); got[0] != 5 || got[2] != 5 {
		t.Errorf("constant resample %v", got)
	}
	if Resample(nil, 0) != nil {
		t.Error("Resample(nil,0) should be nil")
	}
}

func TestFindPeaksSimple(t *testing.T) {
	x := []float64{0, 1, 0, 2, 0, 3, 0}
	peaks := FindPeaks(x, 0.5, 0.5, 1)
	if len(peaks) != 3 {
		t.Fatalf("found %d peaks, want 3: %+v", len(peaks), peaks)
	}
	if peaks[0].Index != 1 || peaks[2].Index != 5 {
		t.Errorf("peak indices %+v", peaks)
	}
	if peaks[2].Height != 3 {
		t.Errorf("peak height %g", peaks[2].Height)
	}
}

func TestFindPeaksMinDistance(t *testing.T) {
	x := []float64{0, 5, 4, 6, 0}
	peaks := FindPeaks(x, 0, 0.5, 3)
	if len(peaks) != 1 {
		t.Fatalf("found %d peaks, want 1 (distance suppression)", len(peaks))
	}
	if peaks[0].Index != 3 {
		t.Errorf("kept peak at %d, want 3 (the taller)", peaks[0].Index)
	}
}

func TestFindPeaksProminence(t *testing.T) {
	// A small bump riding on the shoulder of a big peak has low prominence.
	x := []float64{0, 10, 9.5, 9.8, 9, 0}
	peaks := FindPeaks(x, 0, 1.0, 1)
	if len(peaks) != 1 || peaks[0].Index != 1 {
		t.Fatalf("prominence filter failed: %+v", peaks)
	}
}

func TestFindPeaksPlateau(t *testing.T) {
	x := []float64{0, 2, 2, 2, 0}
	peaks := FindPeaks(x, 0, 0.5, 1)
	if len(peaks) != 1 {
		t.Fatalf("plateau: found %d peaks, want 1", len(peaks))
	}
	if peaks[0].Index != 1 {
		t.Errorf("plateau peak index %d, want 1", peaks[0].Index)
	}
}

func TestFindPeaksBVPLike(t *testing.T) {
	// Synthetic pulse train at 1.2 Hz sampled at 64 Hz: ~expect beats back.
	fs := 64.0
	hr := 1.2
	x := make([]float64, int(fs*30))
	for i := range x {
		ph := math.Mod(float64(i)/fs*hr, 1)
		x[i] = math.Exp(-50*(ph-0.2)*(ph-0.2)) + 0.05*math.Sin(float64(i))
	}
	peaks := FindPeaks(x, 0.5, 0.3, int(fs*0.4))
	wantBeats := 30 * hr
	if math.Abs(float64(len(peaks))-wantBeats) > 3 {
		t.Errorf("detected %d beats, want ≈%g", len(peaks), wantBeats)
	}
	ibis := Intervals(peaks, fs)
	for _, ibi := range ibis {
		if math.Abs(ibi-1/hr) > 0.1 {
			t.Errorf("IBI %g, want ≈%g", ibi, 1/hr)
		}
	}
}

func TestIntervalsEmpty(t *testing.T) {
	if Intervals(nil, 10) != nil {
		t.Error("Intervals(nil) should be nil")
	}
	if Intervals([]Peak{{Index: 3}}, 10) != nil {
		t.Error("Intervals of single peak should be nil")
	}
}

func TestHannWindow(t *testing.T) {
	w := HannWindow(5)
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[4]) > 1e-12 {
		t.Errorf("Hann endpoints %g, %g, want 0", w[0], w[4])
	}
	if math.Abs(w[2]-1) > 1e-12 {
		t.Errorf("Hann centre %g, want 1", w[2])
	}
	if w1 := HannWindow(1); w1[0] != 1 {
		t.Errorf("HannWindow(1) = %v", w1)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := make([]complex128, len(x))
		copy(buf, x)
		FFT(buf)
	}
}

func BenchmarkWelch4096(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Welch(x, 64, 256)
	}
}
