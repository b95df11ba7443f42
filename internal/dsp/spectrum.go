package dsp

import (
	"math"
)

// PSD is a one-sided power spectral density estimate.
type PSD struct {
	// Freqs holds the frequency of each bin in Hz.
	Freqs []float64
	// Power holds the density at each bin (signal²/Hz).
	Power []float64
}

// Welch estimates the one-sided PSD of x sampled at fs Hz using Welch's
// method: Hann-windowed segments of length segLen with 50 % overlap,
// periodograms averaged. segLen is rounded up to a power of two. If x is
// shorter than segLen a single zero-padded segment is used.
func Welch(x []float64, fs float64, segLen int) PSD {
	if len(x) == 0 {
		return PSD{}
	}
	if segLen <= 0 {
		segLen = 256
	}
	segLen = NextPow2(segLen)
	step := segLen / 2
	if step == 0 {
		step = 1
	}
	win := HannWindow(segLen)
	winPow := 0.0
	for _, w := range win {
		winPow += w * w
	}

	nBins := segLen/2 + 1
	acc := make([]float64, nBins)
	segments := 0
	for start := 0; start == 0 || start+segLen <= len(x); start += step {
		seg := make([]complex128, segLen)
		mean := 0.0
		count := 0
		for i := 0; i < segLen && start+i < len(x); i++ {
			mean += x[start+i]
			count++
		}
		if count > 0 {
			mean /= float64(count)
		}
		for i := 0; i < segLen && start+i < len(x); i++ {
			seg[i] = complex((x[start+i]-mean)*win[i], 0)
		}
		FFT(seg)
		for k := 0; k < nBins; k++ {
			m := real(seg[k])*real(seg[k]) + imag(seg[k])*imag(seg[k])
			// One-sided scaling: double the interior bins.
			if k != 0 && k != segLen/2 {
				m *= 2
			}
			acc[k] += m / (fs * winPow)
		}
		segments++
	}
	for k := range acc {
		acc[k] /= float64(segments)
	}
	freqs := make([]float64, nBins)
	for k := range freqs {
		freqs[k] = float64(k) * fs / float64(segLen)
	}
	return PSD{Freqs: freqs, Power: acc}
}

// BandPower integrates the PSD over [lo, hi] Hz using the trapezoid rule.
func (p PSD) BandPower(lo, hi float64) float64 {
	if len(p.Freqs) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(p.Freqs); i++ {
		f0, f1 := p.Freqs[i-1], p.Freqs[i]
		if f1 < lo || f0 > hi {
			continue
		}
		a, b := math.Max(f0, lo), math.Min(f1, hi)
		if b <= a {
			continue
		}
		// Linear interpolation of power at the clipped edges.
		frac0 := (a - f0) / (f1 - f0)
		frac1 := (b - f0) / (f1 - f0)
		p0 := p.Power[i-1] + frac0*(p.Power[i]-p.Power[i-1])
		p1 := p.Power[i-1] + frac1*(p.Power[i]-p.Power[i-1])
		total += 0.5 * (p0 + p1) * (b - a)
	}
	return total
}

// PeakFrequency returns the frequency of the highest-power bin within
// [lo, hi] Hz, or 0 if the band is empty.
func (p PSD) PeakFrequency(lo, hi float64) float64 {
	best, bestF := -1.0, 0.0
	for i, f := range p.Freqs {
		if f < lo || f > hi {
			continue
		}
		if p.Power[i] > best {
			best, bestF = p.Power[i], f
		}
	}
	return bestF
}

// SpectralEntropy returns the normalised Shannon entropy of the PSD within
// [lo, hi] Hz (0 = single tone, 1 = flat spectrum).
func (p PSD) SpectralEntropy(lo, hi float64) float64 {
	var probs []float64
	sum := 0.0
	for i, f := range p.Freqs {
		if f < lo || f > hi {
			continue
		}
		probs = append(probs, p.Power[i])
		sum += p.Power[i]
	}
	if len(probs) < 2 || sum <= 0 {
		return 0
	}
	h := 0.0
	for _, q := range probs {
		q /= sum
		if q > 0 {
			h -= q * math.Log(q)
		}
	}
	return h / math.Log(float64(len(probs)))
}
