package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/edge"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// tuneSetup returns a pipeline whose only checkpoint (cluster 0) is a
// small untrained CNN-LSTM on 24×5 inputs, and eight labelled samples for
// it. Tune reads only the pipeline's Cfg and Fault, so no clustering stage
// is needed.
func tuneSetup(seed int64, blend float64) (*Pipeline, []nn.Sample) {
	m := nn.NewCNNLSTM(nn.ModelConfig{
		InH: 24, InW: 5, Conv1: 2, Conv2: 3,
		K1H: 3, K1W: 3, K2H: 3, K2W: 3, Pool1: 2, Pool2: 2,
		LSTMHidden: 6, Classes: 2, Seed: seed,
	})
	p := &Pipeline{
		Cfg: Config{
			FineTune: nn.TrainConfig{Epochs: 2, BatchSize: 4, LR: 1e-2},
			FTBlend:  blend,
			Seed:     seed,
		},
		Models: []*nn.Model{m},
	}
	rng := rand.New(rand.NewSource(seed))
	var data []nn.Sample
	for i := 0; i < 8; i++ {
		data = append(data, nn.Sample{X: tensor.Randn(rng, 1, 24, 5), Y: i % 2})
	}
	return p, data
}

// requant is the keep hook of a device that stores weights at precision p.
func requant(p quant.Precision) func(*nn.Model) {
	return func(m *nn.Model) { quant.RequantizeWeights(m, p) }
}

func TestTuneDoesNotMutateSource(t *testing.T) {
	p, data := tuneSetup(14, 0)
	m := p.Models[0]
	x := data[0].X
	before := m.Forward(x, false).Clone()
	dep := edge.Deploy(m, edge.CoralTPU())
	if err := p.Tune(context.Background(), dep.Model, 0, data, requant(quant.INT8)); err != nil {
		t.Fatal(err)
	}
	after := m.Forward(x, false)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("on-device fine-tuning leaked into the source checkpoint")
		}
	}
}

// requireInt8Grid fails unless every weight of m is exactly representable
// on its tensor's int8 grid, i.e. re-quantising is a no-op.
func requireInt8Grid(t *testing.T, m *nn.Model) {
	t.Helper()
	for _, p := range m.Params() {
		before := p.W.Clone()
		quant.FakeQuant(p.W, quant.INT8)
		for i := range before.Data {
			if before.Data[i] != p.W.Data[i] {
				t.Fatalf("weight %s not on the int8 grid after fine-tune", p.Name)
			}
		}
	}
}

// TestTuneKeepsWeightsQuantised: with FTBlend the blend of two int8
// weight sets with different scales lands between grid points, so keep
// must run again after the blend, not only after every epoch.
func TestTuneKeepsWeightsQuantised(t *testing.T) {
	for _, blend := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("blend=%v", blend), func(t *testing.T) {
			p, data := tuneSetup(15, blend)
			dep := edge.Deploy(p.Models[0], edge.CoralTPU())
			if err := p.Tune(context.Background(), dep.Model, 0, data, requant(quant.INT8)); err != nil {
				t.Fatal(err)
			}
			requireInt8Grid(t, dep.Model)
		})
	}
}

func TestTuneErrors(t *testing.T) {
	p, _ := tuneSetup(4, 0)
	dep := edge.Deploy(p.Models[0], edge.CoralTPU())
	if err := p.Tune(context.Background(), dep.Model, 0, nil, requant(quant.INT8)); err == nil {
		t.Error("want error for empty data")
	}
}
