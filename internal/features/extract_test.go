package features

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// synthRecording builds a plausible physiological recording: BVP pulse train
// at the given heart rate, GSR with tonic drift plus SCR bumps, SKT drift.
func synthRecording(rng *rand.Rand, durSec, hrHz, scrPerMin float64) *Recording {
	bvpFs, gsrFs, sktFs := 64.0, 8.0, 4.0
	nb := int(durSec * bvpFs)
	bvp := make([]float64, nb)
	for i := range bvp {
		ph := math.Mod(float64(i)/bvpFs*hrHz, 1)
		bvp[i] = math.Exp(-40*(ph-0.3)*(ph-0.3)) + 0.02*rng.NormFloat64()
	}
	ng := int(durSec * gsrFs)
	gsr := make([]float64, ng)
	level := 2.0
	for i := range gsr {
		tSec := float64(i) / gsrFs
		level += 0.0005 * rng.NormFloat64()
		v := level + 0.05*math.Sin(2*math.Pi*tSec/30)
		// SCR bumps at roughly scrPerMin rate.
		if rng.Float64() < scrPerMin/60/gsrFs {
			v += 0.5
		}
		gsr[i] = v
	}
	// Smooth the SCR impulses into bump shapes.
	for pass := 0; pass < 3; pass++ {
		for i := 1; i < len(gsr); i++ {
			gsr[i] = 0.6*gsr[i] + 0.4*gsr[i-1]
		}
	}
	ns := int(durSec * sktFs)
	skt := make([]float64, ns)
	for i := range skt {
		skt[i] = 33 + 0.01*float64(i)/sktFs + 0.01*rng.NormFloat64()
	}
	return &Recording{BVP: bvp, BVPFs: bvpFs, GSR: gsr, GSRFs: gsrFs, SKT: skt, SKTFs: sktFs}
}

func TestFeatureCountsConsistent(t *testing.T) {
	if TotalFeatureCount != 123 {
		t.Fatalf("TotalFeatureCount = %d, want 123", TotalFeatureCount)
	}
	if len(BVPFeatureNames()) != BVPFeatureCount {
		t.Errorf("BVP names %d != count %d", len(BVPFeatureNames()), BVPFeatureCount)
	}
	if len(GSRFeatureNames()) != GSRFeatureCount {
		t.Errorf("GSR names %d != count %d", len(GSRFeatureNames()), GSRFeatureCount)
	}
	if len(SKTFeatureNames()) != SKTFeatureCount {
		t.Errorf("SKT names %d != count %d", len(SKTFeatureNames()), SKTFeatureCount)
	}
	if len(FeatureNames()) != 123 {
		t.Errorf("FeatureNames length %d", len(FeatureNames()))
	}
	seen := map[string]bool{}
	for _, n := range FeatureNames() {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestExtractBVPFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rec := synthRecording(rng, 10, 1.2, 4)
	vec := ExtractBVP(rec.BVP, rec.BVPFs)
	if len(vec) != BVPFeatureCount {
		t.Fatalf("len = %d", len(vec))
	}
	for i, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %s = %g", bvpFeatureNames[i], v)
		}
	}
}

func TestExtractBVPHeartRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, hr := range []float64{1.0, 1.5} {
		rec := synthRecording(rng, 20, hr, 2)
		vec := ExtractBVP(rec.BVP, rec.BVPFs)
		idx := indexOf(bvpFeatureNames, "hr_mean")
		got := vec[idx]
		want := hr * 60
		if math.Abs(got-want) > 8 {
			t.Errorf("hr_mean = %g, want ≈%g", got, want)
		}
		prIdx := indexOf(bvpFeatureNames, "pulse_rate")
		if math.Abs(vec[prIdx]-want) > 10 {
			t.Errorf("pulse_rate = %g, want ≈%g", vec[prIdx], want)
		}
	}
}

func TestExtractBVPDegenerateInputs(t *testing.T) {
	for _, x := range [][]float64{nil, {1}, {1, 1, 1, 1, 1}} {
		vec := ExtractBVP(x, 64)
		if len(vec) != BVPFeatureCount {
			t.Fatalf("degenerate len = %d", len(vec))
		}
		for i, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("degenerate feature %s = %g", bvpFeatureNames[i], v)
			}
		}
	}
}

func TestExtractGSRFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rec := synthRecording(rng, 10, 1.2, 6)
	vec := ExtractGSR(rec.GSR, rec.GSRFs)
	if len(vec) != GSRFeatureCount {
		t.Fatalf("len = %d", len(vec))
	}
	for i, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %s = %g", gsrFeatureNames[i], v)
		}
	}
	// Tonic mean should be near the synthetic level ≈2.
	if m := vec[indexOf(gsrFeatureNames, "gsr_tonic_mean")]; m < 1 || m > 4 {
		t.Errorf("gsr_tonic_mean = %g, want ≈2", m)
	}
}

func TestExtractGSRSCRRateOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	calm := synthRecording(rng, 30, 1.1, 1)
	arous := synthRecording(rng, 30, 1.1, 20)
	calmV := ExtractGSR(calm.GSR, calm.GSRFs)
	arousV := ExtractGSR(arous.GSR, arous.GSRFs)
	idx := indexOf(gsrFeatureNames, "scr_count")
	if arousV[idx] <= calmV[idx] {
		t.Errorf("SCR count: aroused %g should exceed calm %g", arousV[idx], calmV[idx])
	}
}

func TestExtractGSRDegenerate(t *testing.T) {
	vec := ExtractGSR(nil, 8)
	if len(vec) != GSRFeatureCount {
		t.Fatalf("len = %d", len(vec))
	}
	for _, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Error("degenerate GSR features must be finite")
		}
	}
}

func TestExtractSKT(t *testing.T) {
	// 2-minute SKT rising at 0.02 °C/s from 33.
	fs := 4.0
	x := make([]float64, int(120*fs))
	for i := range x {
		x[i] = 33 + 0.02*float64(i)/fs
	}
	vec := ExtractSKT(x, fs)
	if len(vec) != SKTFeatureCount {
		t.Fatalf("len = %d", len(vec))
	}
	if math.Abs(vec[0]-34.2) > 0.05 {
		t.Errorf("skt_mean = %g", vec[0])
	}
	if math.Abs(vec[2]-0.02) > 1e-6 {
		t.Errorf("skt_slope = %g, want 0.02", vec[2])
	}
	if vec[3] != 33 {
		t.Errorf("skt_min = %g", vec[3])
	}
	if ExtractSKT(nil, 4)[0] != 0 {
		t.Error("empty SKT should be zeros")
	}
}

func TestExtractMapShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rec := synthRecording(rng, 60, 1.2, 5)
	cfg := ExtractorConfig{WindowSec: 8, Windows: 6}
	m, err := ExtractMap(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim(0) != 123 || m.Dim(1) != 6 {
		t.Fatalf("map shape %v", m.Shape)
	}
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("feature map contains non-finite values")
		}
	}
}

func TestExtractMapErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rec := synthRecording(rng, 4, 1.2, 5)
	if _, err := ExtractMap(rec, ExtractorConfig{WindowSec: 8, Windows: 4}); err == nil {
		t.Error("want error for recording shorter than window")
	}
	long := synthRecording(rng, 20, 1.2, 5)
	if _, err := ExtractMap(long, ExtractorConfig{WindowSec: 8, Windows: 0}); err == nil {
		t.Error("want error for zero windows")
	}
	if _, err := ExtractMap(long, ExtractorConfig{WindowSec: 0, Windows: 4}); err == nil {
		t.Error("want error for zero window length")
	}
}

func TestExtractMapSingleWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rec := synthRecording(rng, 12, 1.2, 5)
	m, err := ExtractMap(rec, ExtractorConfig{WindowSec: 8, Windows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim(1) != 1 {
		t.Fatalf("shape %v", m.Shape)
	}
}

func TestNormalizer(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var maps []*tensor.Tensor
	for i := 0; i < 5; i++ {
		m := tensor.Randn(rng, 3, 4, 6)
		// Shift feature 2 to a large offset to verify per-row normalisation.
		for j := 0; j < 6; j++ {
			m.Set(m.At(2, j)+100, 2, j)
		}
		maps = append(maps, m)
	}
	norm := FitNormalizer(maps)
	// Pooled per-row mean ≈ 0, std ≈ 1.
	for f := 0; f < 4; f++ {
		var vals []float64
		for _, m := range maps {
			m = norm.Apply(m)
			for j := 0; j < 6; j++ {
				vals = append(vals, m.At(f, j))
			}
		}
		if math.Abs(Mean(vals)) > 1e-9 {
			t.Errorf("row %d mean = %g", f, Mean(vals))
		}
		if math.Abs(Std(vals)-1) > 1e-9 {
			t.Errorf("row %d std = %g", f, Std(vals))
		}
	}
}

func TestNormalizerConstantFeature(t *testing.T) {
	m := tensor.Full(7, 2, 3)
	norm := FitNormalizer([]*tensor.Tensor{m})
	out := norm.Apply(m)
	for _, v := range out.Data {
		if v != 0 {
			t.Errorf("constant feature should normalise to 0, got %g", v)
		}
	}
}

func TestNormalizerEmpty(t *testing.T) {
	norm := FitNormalizer(nil)
	m := tensor.Ones(2, 2)
	out := norm.Apply(m)
	if out.At(0, 0) != 1 {
		t.Error("empty normalizer should be identity")
	}
}

func TestSummary(t *testing.T) {
	m1 := tensor.FromSlice([]float64{1, 3, 10, 30}, 2, 2)
	m2 := tensor.FromSlice([]float64{5, 7, 50, 70}, 2, 2)
	s := Summary([]*tensor.Tensor{m1, m2})
	if len(s) != 2 {
		t.Fatalf("summary len %d", len(s))
	}
	if s[0] != 4 || s[1] != 40 {
		t.Errorf("summary = %v, want [4 40]", s)
	}
	if Summary(nil) != nil {
		t.Error("empty summary should be nil")
	}
}

func indexOf(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	panic("feature name not found: " + want)
}

func BenchmarkFeatureVector(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	rec := synthRecording(rng, 8, 1.2, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FeatureVector(rec.BVP, rec.BVPFs, rec.GSR, rec.GSRFs, rec.SKT, rec.SKTFs)
	}
}
