package dsp

import "math"

// MovingAverage returns the centred moving average of x with the given
// window size (clamped to ≥1). Edges use a shrunken window.
func MovingAverage(x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(x))
	half := window / 2
	for i := range x {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(x) {
			hi = len(x) - 1
		}
		s := 0.0
		for j := lo; j <= hi; j++ {
			s += x[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// Detrend removes the least-squares straight line from x and returns the
// residual.
func Detrend(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n < 2 {
		copy(out, x)
		return out
	}
	// Fit y = a + b t with t = 0..n-1.
	var st, sy, stt, sty float64
	for i, v := range x {
		t := float64(i)
		st += t
		sy += v
		stt += t * t
		sty += t * v
	}
	fn := float64(n)
	den := fn*stt - st*st
	b := 0.0
	if den != 0 {
		b = (fn*sty - st*sy) / den
	}
	a := (sy - b*st) / fn
	for i, v := range x {
		out[i] = v - (a + b*float64(i))
	}
	return out
}

// Biquad is a direct-form-I second-order IIR filter section.
type Biquad struct {
	B0, B1, B2 float64 // numerator
	A1, A2     float64 // denominator (a0 normalised to 1)
}

// Filter applies the biquad to x and returns the output.
func (q Biquad) Filter(x []float64) []float64 {
	out := make([]float64, len(x))
	var x1, x2, y1, y2 float64
	for i, v := range x {
		y := q.B0*v + q.B1*x1 + q.B2*x2 - q.A1*y1 - q.A2*y2
		out[i] = y
		x2, x1 = x1, v
		y2, y1 = y1, y
	}
	return out
}

// LowpassBiquad designs a Butterworth-response low-pass biquad with cutoff
// fc Hz at sample rate fs Hz (bilinear transform, Q = 1/√2).
func LowpassBiquad(fc, fs float64) Biquad {
	w0 := 2 * math.Pi * fc / fs
	cw, sw := math.Cos(w0), math.Sin(w0)
	q := 1 / math.Sqrt2
	alpha := sw / (2 * q)
	a0 := 1 + alpha
	return Biquad{
		B0: (1 - cw) / 2 / a0,
		B1: (1 - cw) / a0,
		B2: (1 - cw) / 2 / a0,
		A1: -2 * cw / a0,
		A2: (1 - alpha) / a0,
	}
}

// HighpassBiquad designs a Butterworth-response high-pass biquad with cutoff
// fc Hz at sample rate fs Hz.
func HighpassBiquad(fc, fs float64) Biquad {
	w0 := 2 * math.Pi * fc / fs
	cw, sw := math.Cos(w0), math.Sin(w0)
	q := 1 / math.Sqrt2
	alpha := sw / (2 * q)
	a0 := 1 + alpha
	return Biquad{
		B0: (1 + cw) / 2 / a0,
		B1: -(1 + cw) / a0,
		B2: (1 + cw) / 2 / a0,
		A1: -2 * cw / a0,
		A2: (1 - alpha) / a0,
	}
}

// Bandpass applies a high-pass at lo Hz followed by a low-pass at hi Hz.
func Bandpass(x []float64, lo, hi, fs float64) []float64 {
	return LowpassBiquad(hi, fs).Filter(HighpassBiquad(lo, fs).Filter(x))
}

// Resample linearly resamples x from length len(x) to length n.
func Resample(x []float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if len(x) == 0 {
		return out
	}
	if len(x) == 1 || n == 1 {
		for i := range out {
			out[i] = x[0]
		}
		return out
	}
	scale := float64(len(x)-1) / float64(n-1)
	for i := range out {
		pos := float64(i) * scale
		j := int(pos)
		if j >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(j)
		out[i] = x[j]*(1-frac) + x[j+1]*frac
	}
	return out
}
