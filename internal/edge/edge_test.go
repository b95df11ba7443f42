package edge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func tinyModel(seed int64) *nn.Model {
	return nn.NewCNNLSTM(nn.ModelConfig{
		InH: 24, InW: 5, Conv1: 2, Conv2: 3,
		K1H: 3, K1W: 3, K2H: 3, K2W: 3, Pool1: 2, Pool2: 2,
		LSTMHidden: 6, Classes: 2, Seed: seed,
	})
}

func TestDeviceProfiles(t *testing.T) {
	devs := Devices()
	if len(devs) != 3 {
		t.Fatalf("%d devices", len(devs))
	}
	if devs[0].Precision != quant.FP64 || devs[1].Precision != quant.INT8 || devs[2].Precision != quant.FP16 {
		t.Error("device precisions wrong")
	}
	for _, d := range devs {
		if d.MACsPerSec <= 0 || d.IdleW <= 0 {
			t.Errorf("%s: non-positive constants", d.Name)
		}
		if d.String() == "" {
			t.Error("empty String()")
		}
	}
}

// TestCostModelMatchesTableII checks that the paper-size model lands near
// the measured Table II latencies and powers (shape targets, ±40 %).
func TestCostModelMatchesTableII(t *testing.T) {
	m := nn.NewCNNLSTM(nn.PaperModelConfig(8))
	in := []int{123, 8}
	// The paper fine-tunes with 20 % of a user's data (≈4 labelled maps);
	// the fast-profile harness runs 15 epochs over them.
	const ftSamples, ftEpochs = 4, 15

	tpu := CoralTPU().Cost(m, in, ftSamples, ftEpochs)
	ncs := PiNCS2().Cost(m, in, ftSamples, ftEpochs)

	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*want
	}
	if !within(tpu.TestS, 0.04731, 0.4) {
		t.Errorf("TPU test time %.4fs, paper 47.31ms", tpu.TestS)
	}
	if !within(ncs.TestS, 0.2397, 0.4) {
		t.Errorf("NCS2 test time %.4fs, paper 239.70ms", ncs.TestS)
	}
	if !within(tpu.RetrainS, 32.48, 0.4) {
		t.Errorf("TPU retrain %.1fs, paper 32.48s", tpu.RetrainS)
	}
	if !within(ncs.RetrainS, 78.52, 0.4) {
		t.Errorf("NCS2 retrain %.1fs, paper 78.52s", ncs.RetrainS)
	}
	// Power rows are direct constants; match tightly.
	if !within(tpu.MPCRetrainW, 1.82, 0.05) || !within(tpu.MPCTestW, 1.64, 0.05) || !within(tpu.MPCIdleW, 1.28, 0.05) {
		t.Errorf("TPU power rows %+v", tpu)
	}
	if !within(ncs.MPCRetrainW, 3.78, 0.05) || !within(ncs.MPCTestW, 3.43, 0.05) || !within(ncs.MPCIdleW, 2.76, 0.05) {
		t.Errorf("NCS2 power rows %+v", ncs)
	}
	// Orderings the paper emphasises.
	if !(tpu.RetrainS < ncs.RetrainS && tpu.TestS < ncs.TestS) {
		t.Error("TPU must be faster than Pi+NCS2")
	}
	gpu := GPU().Cost(m, in, ftSamples, ftEpochs)
	if !(gpu.TestS < tpu.TestS) {
		t.Error("GPU must be fastest")
	}
	if tpu.RetrainEnergyJ <= 0 || tpu.TestEnergyJ <= 0 {
		t.Error("energies must be positive")
	}
}

func TestCostScalesWithModelSize(t *testing.T) {
	small := tinyModel(1)
	big := nn.NewCNNLSTM(nn.PaperModelConfig(8))
	d := CoralTPU()
	cs := d.Cost(small, []int{24, 5}, 10, 5)
	cb := d.Cost(big, []int{123, 8}, 10, 5)
	if cb.TestS <= cs.TestS {
		t.Error("bigger model must cost more per inference")
	}
	if cb.RetrainS <= cs.RetrainS {
		t.Error("bigger model must cost more to retrain")
	}
}

func TestDeployPrecisionAccuracyOrdering(t *testing.T) {
	// Train a model on a separable toy task, then deploy to all three
	// devices: fp64 ≥ fp16 ≥ int8 − small tolerance.
	cfg := nn.ModelConfig{
		InH: 24, InW: 5, Conv1: 2, Conv2: 3,
		K1H: 3, K1W: 3, K2H: 3, K2W: 3, Pool1: 2, Pool2: 2,
		LSTMHidden: 6, Classes: 2, Seed: 11,
	}
	m := nn.NewCNNLSTM(cfg)
	rng := rand.New(rand.NewSource(12))
	mk := func(n int) []nn.Sample {
		var out []nn.Sample
		for i := 0; i < n; i++ {
			y := i % 2
			x := tensor.Randn(rng, 0.6, 24, 5)
			shift := -0.5
			if y == 1 {
				shift = 0.5
			}
			for r := 0; r < 8; r++ {
				for c := 0; c < 5; c++ {
					x.Set(x.At(r, c)+shift, r, c)
				}
			}
			out = append(out, nn.Sample{X: x, Y: y})
		}
		return out
	}
	train, test := mk(80), mk(60)
	if _, err := nn.Train(m, train, nn.TrainConfig{Epochs: 15, BatchSize: 8, LR: 3e-3, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	accGPU := nn.Accuracy(Deploy(m, GPU()).Model, test)
	accNCS := nn.Accuracy(Deploy(m, PiNCS2()).Model, test)
	accTPU := nn.Accuracy(Deploy(m, CoralTPU()).Model, test)
	if accGPU < 0.8 {
		t.Fatalf("GPU accuracy %.3f too low for the ordering test to mean anything", accGPU)
	}
	if accNCS < accGPU-0.1 {
		t.Errorf("fp16 accuracy %.3f dropped too far below fp64 %.3f", accNCS, accGPU)
	}
	if accTPU > accGPU+1e-9 && accTPU > accNCS+1e-9 {
		t.Logf("note: int8 (%.3f) beat higher precisions (gpu %.3f, ncs %.3f) on this toy set", accTPU, accGPU, accNCS)
	}
}

func TestDeploymentCostDelegates(t *testing.T) {
	dep := Deploy(tinyModel(5), PiNCS2())
	c := dep.Cost([]int{24, 5}, 10, 5)
	if c.Device != "Pi + NCS2" || c.TestS <= 0 {
		t.Errorf("cost %+v", c)
	}
}
