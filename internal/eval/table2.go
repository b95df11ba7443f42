package eval

import (
	"context"

	"repro/internal/edge"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// calibrationSet builds the post-training quantisation calibration inputs
// for one fold: feature maps from the fold's *training* users (the held-out
// volunteer's data must not inform the conversion), in the classifier input
// representation.
func calibrationSet(run *LOSORun, fold LOSOFold, n int) []*tensor.Tensor {
	p := fold.Pipeline
	var out []*tensor.Tensor
	for i, u := range run.Users {
		if i == fold.UserIdx {
			continue
		}
		for _, s := range p.SamplesFor(u) {
			out = append(out, s.X)
			if len(out) >= n {
				return out
			}
			break // one map per user spreads coverage across users
		}
	}
	return out
}

// DeviceResult is one platform's block of Table II.
type DeviceResult struct {
	Device string
	// NoFT is the deployed (device-precision) accuracy of the assigned
	// cluster checkpoint without fine-tuning (Table II upper).
	NoFT Agg
	// RT is the robustness test at device precision: the other clusters'
	// models on the held-out volunteer.
	RT Agg
	// FT is the accuracy after on-device fine-tuning (Table II lower).
	FT Agg
	// Cost is the simulated MTC/MPC block.
	Cost edge.CostReport
}

// Table2 is the full edge validation.
type Table2 struct {
	Results []DeviceResult
}

// RunTable2 deploys every LOSO fold's assigned checkpoint to each device,
// evaluates without fine-tuning, fine-tunes on-device with ftFrac of the
// volunteer's labelled data, re-evaluates, and reports the analytic
// time/power model. The GPU entry is the in-precision baseline: its FT
// column is Table I's CLEAR w FT, since both run Pipeline.Tune at the same
// seeds on the same weights.
func RunTable2(run *LOSORun, devices []edge.Device, ftFrac float64) (*Table2, error) {
	out := &Table2{}
	for _, dev := range devices {
		var noFT, rt, ft []Metrics
		var ftSamples int
		requant := func(m *nn.Model) { quant.RequantizeWeights(m, dev.Precision) }
		for _, fold := range run.Folds {
			u := run.Users[fold.UserIdx]
			p := fold.Pipeline
			data := p.SamplesFor(u)
			calib := calibrationSet(run, fold, 16)

			dep := edge.DeployCalibrated(p.ModelFor(fold.Assignment.Cluster), dev, calib)
			met, err := EvaluateModel(dep.Model, data)
			if err != nil {
				return nil, err
			}
			noFT = append(noFT, met)

			// RT at device precision.
			var rts []Metrics
			for k := range p.Models {
				if k == fold.Assignment.Cluster {
					continue
				}
				rdep := edge.DeployCalibrated(p.ModelFor(k), dev, calib)
				rmet, err := EvaluateModel(rdep.Model, data)
				if err != nil {
					return nil, err
				}
				rts = append(rts, rmet)
			}
			if len(rts) > 0 {
				rt = append(rt, meanMetrics(rts))
			}

			// On-device fine-tuning: the pipeline's one recipe, run on the
			// deployed copy with its weights kept at device precision.
			ftTrain, ftTest := SplitForFineTune(data, ftFrac)
			if len(ftTrain) == 0 || len(ftTest) == 0 {
				continue
			}
			if err := p.Tune(context.TODO(), dep.Model, fold.Assignment.Cluster, ftTrain, requant); err != nil {
				return nil, err
			}
			fmet, err := EvaluateModel(dep.Model, ftTest)
			if err != nil {
				return nil, err
			}
			ft = append(ft, fmet)
			ftSamples = len(ftTrain)
		}
		inShape := []int{run.Cfg.Model.InH, run.Cfg.Model.InW}
		var costModel *nn.Model
		if len(run.Folds) > 0 {
			costModel = run.Folds[0].Pipeline.ModelFor(0)
		}
		dr := DeviceResult{
			Device: dev.Name,
			NoFT:   Aggregate(noFT),
			RT:     Aggregate(rt),
			FT:     Aggregate(ft),
		}
		if costModel != nil {
			dr.Cost = dev.Cost(costModel, inShape, ftSamples, run.Cfg.FineTune.Epochs)
		}
		out.Results = append(out.Results, dr)
	}
	return out, nil
}
