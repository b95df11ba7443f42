package edge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainedMonitorModel builds a model that fires on high-GSR windows by
// training on synthetic maps with a planted signature.
func monitorFixture(t *testing.T) (*Deployment, *features.Normalizer, features.ExtractorConfig) {
	t.Helper()
	cfg := nn.ModelConfig{
		InH: features.TotalFeatureCount, InW: 2,
		Conv1: 2, Conv2: 3, K1H: 5, K1W: 3, K2H: 3, K2W: 3,
		Pool1: 4, Pool2: 3, LSTMHidden: 8, Classes: 2, Seed: 21,
	}
	m := nn.NewCNNLSTM(cfg)
	ecfg := features.ExtractorConfig{WindowSec: 8, Windows: 2}

	// Build labelled recordings: "fear" = fast strong pulses + SCR bursts.
	rng := rand.New(rand.NewSource(22))
	var recs []*features.Recording
	var labels []int
	for i := 0; i < 40; i++ {
		fear := i%2 == 1
		recs = append(recs, synthMonitorRec(rng, fear, 18))
		if fear {
			labels = append(labels, 1)
		} else {
			labels = append(labels, 0)
		}
	}
	var maps []*tensor.Tensor
	for _, r := range recs {
		fm, err := features.ExtractMap(r, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, fm)
	}
	norm := features.FitNormalizer(maps)
	var data []nn.Sample
	for i, fm := range maps {
		data = append(data, nn.Sample{X: norm.Apply(fm), Y: labels[i]})
	}
	if _, err := nn.Train(m, data, nn.TrainConfig{Epochs: 12, BatchSize: 8, LR: 3e-3, GradClip: 5, Seed: 23}); err != nil {
		t.Fatal(err)
	}
	return Deploy(m, GPU()), norm, ecfg
}

// synthMonitorRec renders a simple recording whose "fear" condition has a
// markedly higher heart rate and GSR level.
func synthMonitorRec(rng *rand.Rand, fear bool, durSec float64) *features.Recording {
	bvpFs, gsrFs, sktFs := 64.0, 8.0, 4.0
	hr := 1.1
	gsrLevel := 2.0
	if fear {
		hr = 1.9
		gsrLevel = 6.0
	}
	nb := int(durSec * bvpFs)
	bvp := make([]float64, nb)
	for i := range bvp {
		ph := math.Mod(float64(i)/bvpFs*hr, 1)
		bvp[i] = math.Exp(-40*(ph-0.3)*(ph-0.3)) + 0.03*rng.NormFloat64()
	}
	ng := int(durSec * gsrFs)
	gsr := make([]float64, ng)
	for i := range gsr {
		gsr[i] = gsrLevel + 0.05*rng.NormFloat64()
	}
	ns := int(durSec * sktFs)
	skt := make([]float64, ns)
	for i := range skt {
		skt[i] = 33 + 0.02*rng.NormFloat64()
	}
	return &features.Recording{BVP: bvp, BVPFs: bvpFs, GSR: gsr, GSRFs: gsrFs, SKT: skt, SKTFs: sktFs}
}

func TestMonitorAlarmCycle(t *testing.T) {
	dep, norm, ecfg := monitorFixture(t)
	mon := NewMonitor(dep, norm, ecfg)
	rng := rand.New(rand.NewSource(24))

	// Calm phase: no alarm.
	for i := 0; i < 4; i++ {
		ev, err := mon.Process(synthMonitorRec(rng, false, 18))
		if err != nil {
			t.Fatal(err)
		}
		if ev.Alarm {
			t.Fatalf("alarm during calm phase at %d (prob %.2f)", i, ev.SmoothProb)
		}
	}
	// Fear phase: alarm must engage.
	engaged := false
	for i := 0; i < 6; i++ {
		ev, err := mon.Process(synthMonitorRec(rng, true, 18))
		if err != nil {
			t.Fatal(err)
		}
		if ev.Alarm {
			engaged = true
		}
	}
	if !engaged {
		t.Fatal("alarm never engaged during fear phase")
	}
	// Recovery: alarm must clear.
	cleared := false
	for i := 0; i < 8; i++ {
		ev, err := mon.Process(synthMonitorRec(rng, false, 18))
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Alarm {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("alarm never cleared after recovery")
	}
	mon.Reset()
	if mon.alarmed {
		t.Error("Reset must clear the alarm")
	}
}

func TestMonitorHysteresisStability(t *testing.T) {
	dep, norm, ecfg := monitorFixture(t)
	mon := NewMonitor(dep, norm, ecfg)
	rng := rand.New(rand.NewSource(25))
	// Alternating borderline inputs: the alarm must not toggle every step.
	toggles := 0
	for i := 0; i < 12; i++ {
		ev, err := mon.Process(synthMonitorRec(rng, i%2 == 0, 18))
		if err != nil {
			t.Fatal(err)
		}
		if ev.Changed {
			toggles++
		}
	}
	if toggles > 4 {
		t.Errorf("alarm toggled %d times in 12 alternating windows; hysteresis too weak", toggles)
	}
}

func TestMonitorErrorPropagates(t *testing.T) {
	dep, norm, ecfg := monitorFixture(t)
	mon := NewMonitor(dep, norm, ecfg)
	short := &features.Recording{BVP: make([]float64, 10), BVPFs: 64}
	if _, err := mon.Process(short); err == nil {
		t.Error("want error for too-short recording")
	}
}
