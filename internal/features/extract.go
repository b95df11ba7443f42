package features

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// TotalFeatureCount is the full feature vector length: 84 BVP + 34 GSR +
// 5 SKT = 123, matching the paper.
const TotalFeatureCount = BVPFeatureCount + GSRFeatureCount + SKTFeatureCount

// Recording holds the three raw physiological channels for one stimulus
// presentation, each at its own sample rate.
type Recording struct {
	BVP   []float64 // blood volume pulse
	BVPFs float64   // Hz
	GSR   []float64 // galvanic skin response (skin conductance)
	GSRFs float64   // Hz
	SKT   []float64 // skin temperature
	SKTFs float64   // Hz
}

// Duration returns the recording length in seconds (from the BVP channel).
func (r *Recording) Duration() float64 {
	if r.BVPFs == 0 {
		return 0
	}
	return float64(len(r.BVP)) / r.BVPFs
}

// ExtractorConfig controls how a recording is windowed into a feature map.
type ExtractorConfig struct {
	// WindowSec is the analysis window length in seconds.
	WindowSec float64
	// Windows is the number of windows W per recording. Windows are spaced
	// evenly (overlapping if necessary) to cover the recording.
	Windows int
}

// DefaultExtractorConfig mirrors the paper's setup: W windows per stimulus
// recording, each long enough for heart-beat statistics.
func DefaultExtractorConfig() ExtractorConfig {
	return ExtractorConfig{WindowSec: 8, Windows: 8}
}

// FeatureVector computes the full 123-feature vector for one window of the
// three channels.
func FeatureVector(bvp []float64, bvpFs float64, gsr []float64, gsrFs float64, skt []float64, sktFs float64) []float64 {
	out := make([]float64, 0, TotalFeatureCount)
	out = append(out, ExtractBVP(bvp, bvpFs)...)
	out = append(out, ExtractGSR(gsr, gsrFs)...)
	out = append(out, ExtractSKT(skt, sktFs)...)
	return out
}

// FeatureNames returns all 123 feature names in extraction order.
func FeatureNames() []string {
	out := make([]string, 0, TotalFeatureCount)
	out = append(out, BVPFeatureNames()...)
	out = append(out, GSRFeatureNames()...)
	out = append(out, SKTFeatureNames()...)
	return out
}

// ExtractMap windows the recording into cfg.Windows windows and computes the
// 123-feature vector for each, producing the paper's 2-D feature map
// M ∈ R^{F×W} with F=123 rows and W columns.
func ExtractMap(rec *Recording, cfg ExtractorConfig) (*tensor.Tensor, error) {
	if cfg.Windows < 1 {
		return nil, fmt.Errorf("features: Windows must be ≥1, got %d", cfg.Windows)
	}
	if cfg.WindowSec <= 0 {
		return nil, fmt.Errorf("features: WindowSec must be positive, got %g", cfg.WindowSec)
	}
	dur := rec.Duration()
	if dur < cfg.WindowSec {
		return nil, fmt.Errorf("features: recording %.1fs shorter than window %.1fs", dur, cfg.WindowSec)
	}
	m := tensor.New(TotalFeatureCount, cfg.Windows)
	// Evenly spaced window starts covering [0, dur-WindowSec].
	span := dur - cfg.WindowSec
	for w := 0; w < cfg.Windows; w++ {
		start := 0.0
		if cfg.Windows > 1 {
			start = span * float64(w) / float64(cfg.Windows-1)
		}
		bvp := sliceWindow(rec.BVP, rec.BVPFs, start, cfg.WindowSec)
		gsr := sliceWindow(rec.GSR, rec.GSRFs, start, cfg.WindowSec)
		skt := sliceWindow(rec.SKT, rec.SKTFs, start, cfg.WindowSec)
		vec := FeatureVector(bvp, rec.BVPFs, gsr, rec.GSRFs, skt, rec.SKTFs)
		for f, v := range vec {
			m.Set(v, f, w)
		}
	}
	return m, nil
}

func sliceWindow(x []float64, fs, startSec, lenSec float64) []float64 {
	lo := int(startSec * fs)
	hi := lo + int(lenSec*fs)
	if lo < 0 {
		lo = 0
	}
	if hi > len(x) {
		hi = len(x)
	}
	if lo >= hi {
		return nil
	}
	return x[lo:hi]
}

// BaselineCorrect returns a stimulus-locked baseline-corrected copy of the
// feature map: each feature row has its first-window value subtracted, so
// the map encodes *change from the trial's onset baseline* rather than
// absolute levels. This is the standard pre-processing for event-locked
// physiological analysis; it removes user- and group-specific offsets from
// the classifier's input (absolute levels remain available to the
// clustering stage, which consumes raw summaries).
func BaselineCorrect(m *tensor.Tensor) *tensor.Tensor {
	f, w := m.Dim(0), m.Dim(1)
	out := tensor.New(f, w)
	for i := 0; i < f; i++ {
		base := m.At(i, 0)
		for j := 0; j < w; j++ {
			out.Set(m.At(i, j)-base, i, j)
		}
	}
	return out
}

// Normalizer stores per-feature affine parameters (z-score) fitted on a
// training set of feature maps and applied to any map. Normalising with
// training-set statistics only is what keeps LOSO evaluation unbiased.
type Normalizer struct {
	Mean []float64
	Std  []float64
}

// FitNormalizer computes per-feature (per-row) mean and standard deviation
// over all columns of all given maps.
func FitNormalizer(maps []*tensor.Tensor) *Normalizer {
	if len(maps) == 0 {
		return &Normalizer{}
	}
	f := maps[0].Dim(0)
	mean := make([]float64, f)
	count := make([]float64, f)
	for _, m := range maps {
		w := m.Dim(1)
		for i := 0; i < f; i++ {
			for j := 0; j < w; j++ {
				mean[i] += m.At(i, j)
				count[i]++
			}
		}
	}
	for i := range mean {
		if count[i] > 0 {
			mean[i] /= count[i]
		}
	}
	std := make([]float64, f)
	for _, m := range maps {
		w := m.Dim(1)
		for i := 0; i < f; i++ {
			for j := 0; j < w; j++ {
				d := m.At(i, j) - mean[i]
				std[i] += d * d
			}
		}
	}
	for i := range std {
		if count[i] > 0 {
			std[i] = math.Sqrt(std[i] / count[i])
		}
		if std[i] < 1e-9 {
			std[i] = 1 // constant feature: leave centred at 0
		}
	}
	return &Normalizer{Mean: mean, Std: std}
}

// Apply returns a z-scored copy of the feature map m.
func (n *Normalizer) Apply(m *tensor.Tensor) *tensor.Tensor {
	if len(n.Mean) == 0 {
		return m.Clone()
	}
	f, w := m.Dim(0), m.Dim(1)
	out := tensor.New(f, w)
	for i := 0; i < f; i++ {
		for j := 0; j < w; j++ {
			out.Set((m.At(i, j)-n.Mean[i])/n.Std[i], i, j)
		}
	}
	return out
}

// Summary returns the per-user feature summary vector used for clustering:
// the per-feature mean over all columns of all the user's maps. This is the
// D ∈ R^{F×N} construction from the paper's Global Clustering step.
func Summary(maps []*tensor.Tensor) []float64 {
	if len(maps) == 0 {
		return nil
	}
	f := maps[0].Dim(0)
	out := make([]float64, f)
	n := 0.0
	for _, m := range maps {
		w := m.Dim(1)
		for i := 0; i < f; i++ {
			for j := 0; j < w; j++ {
				out[i] += m.At(i, j)
			}
		}
		n += float64(w)
	}
	for i := range out {
		out[i] /= n
	}
	return out
}
