package quant

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestDeployAllArchitectures: quantised deployment must work for every
// classifier architecture, not just the Fig. 2 CNN-LSTM.
func TestDeployAllArchitectures(t *testing.T) {
	for _, arch := range []nn.Arch{nn.ArchCNNLSTM, nn.ArchCNNOnly, nn.ArchLSTMOnly} {
		cfg := nn.ModelConfig{
			InH: 24, InW: 5, Conv1: 2, Conv2: 3,
			K1H: 3, K1W: 3, K2H: 3, K2W: 3, Pool1: 2, Pool2: 2,
			LSTMHidden: 6, Classes: 2, Seed: 5, Arch: arch,
		}
		m := nn.NewModel(cfg)
		rng := rand.New(rand.NewSource(6))
		x := tensor.Randn(rng, 1, 24, 5)
		for _, p := range []Precision{FP64, FP16, INT8} {
			dep := DeployModel(m, p)
			out := dep.Forward(x, false)
			if out.Size() != 2 {
				t.Errorf("%s @ %v: output size %d", arch, p, out.Size())
			}
		}
	}
}

// TestQuantErrorSmallRelativeToWeights: int8 per-tensor quantisation of
// realistic weight tensors keeps mean error well under the weight scale.
func TestQuantErrorSmallRelativeToWeights(t *testing.T) {
	m := nn.NewCNNLSTM(nn.PaperModelConfig(8))
	for _, p := range m.Params() {
		if p.W.Size() < 8 {
			continue
		}
		mean, ss := 0.0, 0.0
		for _, v := range p.W.Data {
			mean += v / float64(p.W.Size())
		}
		for _, v := range p.W.Data {
			ss += (v - mean) * (v - mean)
		}
		std := math.Sqrt(ss / float64(p.W.Size()))
		if std == 0 {
			continue
		}
		err8 := MeanQuantError(p.W, INT8)
		if err8 > std/5 {
			t.Errorf("%s: int8 error %g vs weight std %g", p.Name, err8, std)
		}
		err16 := MeanQuantError(p.W, FP16)
		if err16 > err8 {
			t.Errorf("%s: fp16 error %g exceeds int8 %g", p.Name, err16, err8)
		}
	}
}

// TestFloat16BitPatterns: spot-check exact binary16 encodings.
func TestFloat16BitPatterns(t *testing.T) {
	cases := []struct {
		f    float32
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-2, 0xC000},
		{0.5, 0x3800},
		{65504, 0x7BFF},
	}
	for _, c := range cases {
		if got := Float32ToFloat16(c.f); got != c.bits {
			t.Errorf("Float32ToFloat16(%g) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if back := Float16ToFloat32(c.bits); back != c.f {
			t.Errorf("Float16ToFloat32(%#04x) = %g, want %g", c.bits, back, c.f)
		}
	}
}

func TestCalibrateFreezesScales(t *testing.T) {
	m := nn.NewCNNLSTM(nn.ModelConfig{
		InH: 24, InW: 5, Conv1: 2, Conv2: 3,
		K1H: 3, K1W: 3, K2H: 3, K2W: 3, Pool1: 2, Pool2: 2,
		LSTMHidden: 6, Classes: 2, Seed: 8,
	})
	dep := DeployModel(m, INT8)
	rng := rand.New(rand.NewSource(9))
	var calib []*tensor.Tensor
	for i := 0; i < 12; i++ {
		calib = append(calib, tensor.Randn(rng, 1, 24, 5))
	}
	n := Calibrate(dep, calib)
	if n == 0 {
		t.Fatal("no quantisers calibrated")
	}
	for _, l := range dep.Layers {
		if aq, ok := l.(*ActQuant); ok {
			if aq.Scale <= 0 {
				t.Fatal("calibration left a dynamic scale")
			}
		}
	}
	// Outlier activations must saturate: feed a 10x-larger input and check
	// the first quantiser's output is clamped to ±127·scale... observable
	// end-to-end: output must stay finite and the deployed model must still
	// produce 2 logits.
	big := tensor.Randn(rng, 10, 24, 5)
	out := dep.Forward(big, false)
	if out.Size() != 2 {
		t.Fatal("calibrated model broken")
	}
	// FP64 deployment has nothing to calibrate.
	if Calibrate(DeployModel(m, FP64), calib) != 0 {
		t.Error("FP64 deployment should have no int8 quantisers")
	}
}

func TestCalibratedQuantSaturates(t *testing.T) {
	aq := NewActQuant(INT8)
	aq.Scale = 0.01 // representable range ±1.27
	x := tensor.FromSlice([]float64{0.5, 2.0, -3.0}, 3)
	out := aq.Forward(x, false)
	if out.Data[0] != 0.5 {
		t.Errorf("in-range value %g, want 0.5", out.Data[0])
	}
	if out.Data[1] != 1.27 {
		t.Errorf("positive outlier %g, want saturated 1.27", out.Data[1])
	}
	if out.Data[2] != -1.28 {
		t.Errorf("negative outlier %g, want saturated -1.28", out.Data[2])
	}
}
