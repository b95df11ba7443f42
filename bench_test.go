// Package repro_test benchmarks every table and figure of the CLEAR paper
// end-to-end (see DESIGN.md §4 for the experiment index). Each benchmark
// runs the same code path as the cmd/ binaries on a reduced population so
// the whole suite completes in minutes on one core; the binaries regenerate
// the full-size tables.
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wemac"
)

// benchPopulation holds the shared reduced dataset (generation + feature
// extraction are excluded from every benchmark's timing).
var (
	benchOnce  sync.Once
	benchUsers []*wemac.UserMaps
	benchCfg   core.Config
)

func benchSetup(b *testing.B) ([]*wemac.UserMaps, core.Config) {
	b.Helper()
	benchOnce.Do(func() {
		ds := wemac.Generate(wemac.Config{
			ArchetypeSizes:     []int{3, 3, 2, 2},
			TrialsPerVolunteer: 6,
			TrialSec:           30,
			Seed:               17,
		})
		ecfg := features.ExtractorConfig{WindowSec: 8, Windows: 4}
		users, err := wemac.ExtractAll(ds, ecfg)
		if err != nil {
			panic(err)
		}
		benchUsers = users
		benchCfg = core.Config{
			K: 4, SubK: 2,
			Extractor: ecfg,
			Model: nn.ModelConfig{
				Conv1: 2, Conv2: 4,
				K1H: 5, K1W: 3, K2H: 3, K2W: 3, Pool1: 4, Pool2: 3,
				LSTMHidden: 12, Dropout: 0.1, Classes: 2, Seed: 1,
			},
			Train:        nn.TrainConfig{Epochs: 6, BatchSize: 16, LR: 3e-3, GradClip: 5, ValFrac: 0.15, Patience: 4, Seed: 1},
			FineTune:     nn.TrainConfig{Epochs: 4, BatchSize: 8, LR: 1e-3, GradClip: 5, Seed: 1},
			Cluster:      cluster.Options{Restarts: 4, MaxIter: 50},
			RefineRounds: 3, RefineSampleFrac: 0.8, Seed: 1,
		}
	})
	return benchUsers, benchCfg
}

// benchLOSO caches one LOSO run for the benchmarks that consume it
// (Table I CLEAR rows and Table II) — mirroring how the binaries share the
// run via -cache.
var (
	benchLOSOOnce sync.Once
	benchLOSORun  *eval.LOSORun
)

func benchLOSOSetup(b *testing.B) *eval.LOSORun {
	b.Helper()
	users, cfg := benchSetup(b)
	benchLOSOOnce.Do(func() {
		run, err := eval.RunLOSO(users, cfg, 0.1, nil)
		if err != nil {
			panic(err)
		}
		benchLOSORun = run
	})
	return benchLOSORun
}

// BenchmarkFig2ModelForward measures one inference of the paper-size
// CNN-LSTM on a 123×8 feature map (Fig. 2).
func BenchmarkFig2ModelForward(b *testing.B) {
	cfg := nn.PaperModelConfig(8)
	m := nn.NewCNNLSTM(cfg)
	x := tensor.Ones(cfg.InH, cfg.InW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

// BenchmarkTable1GeneralModel regenerates the "General Model" row (E1).
func BenchmarkTable1GeneralModel(b *testing.B) {
	users, cfg := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := eval.RunGeneralModel(users, cfg, 5, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(agg.MeanAcc, "acc%")
	}
}

// BenchmarkTable1CLValidation regenerates the "CL validation" row (E2).
func BenchmarkTable1CLValidation(b *testing.B) {
	users, cfg := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunCL(users, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CL.MeanAcc, "acc%")
	}
}

// BenchmarkTable1RTCL regenerates the "RT CL" robustness row (E3); the RT
// evaluation comes from the same intra-cluster LOSO pass.
func BenchmarkTable1RTCL(b *testing.B) {
	users, cfg := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunCL(users, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RT.MeanAcc, "acc%")
	}
}

// BenchmarkTable1CLEARLoso measures the expensive shared step of the CLEAR
// rows: the full LOSO loop (recluster + 4 model trainings per fold) (E4-E6
// setup).
func BenchmarkTable1CLEARLoso(b *testing.B) {
	users, cfg := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunLOSO(users, cfg, 0.1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1CLEARNoFT regenerates "CLEAR w/o FT" (E4) from a cached
// LOSO run.
func BenchmarkTable1CLEARNoFT(b *testing.B) {
	run := benchLOSOSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.EvaluateCLEAR(run, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithoutFT.MeanAcc, "acc%")
	}
}

// BenchmarkTable1RTCLEAR regenerates "RT CLEAR" (E5).
func BenchmarkTable1RTCLEAR(b *testing.B) {
	run := benchLOSOSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.EvaluateCLEAR(run, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RT.MeanAcc, "acc%")
	}
}

// BenchmarkTable1CLEARFT regenerates "CLEAR w FT" (E6); fine-tuning runs
// inside the measured loop.
func BenchmarkTable1CLEARFT(b *testing.B) {
	run := benchLOSOSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.EvaluateCLEAR(run, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithFT.MeanAcc, "acc%")
	}
}

// BenchmarkTable2EdgeAccuracy regenerates the Table II upper block (E7):
// per-device deployment accuracy without fine-tuning.
func BenchmarkTable2EdgeAccuracy(b *testing.B) {
	run := benchLOSOSetup(b)
	devices := []edge.Device{edge.GPU(), edge.CoralTPU(), edge.PiNCS2()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2, err := eval.RunTable2(run, devices, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t2.Results[1].NoFT.MeanAcc, "tpu_acc%")
	}
}

// BenchmarkTable2EdgeFineTune regenerates the Table II lower accuracy block
// (E8): on-device fine-tuning at device precision.
func BenchmarkTable2EdgeFineTune(b *testing.B) {
	run := benchLOSOSetup(b)
	devices := []edge.Device{edge.CoralTPU(), edge.PiNCS2()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2, err := eval.RunTable2(run, devices, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t2.Results[0].FT.MeanAcc, "tpu_ft_acc%")
	}
}

// BenchmarkTable2EdgeCost regenerates the Table II MTC/MPC rows (E9): the
// analytic latency/power model over the deployed model's op counts.
func BenchmarkTable2EdgeCost(b *testing.B) {
	m := nn.NewCNNLSTM(nn.PaperModelConfig(8))
	in := []int{123, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range []edge.Device{edge.GPU(), edge.CoralTPU(), edge.PiNCS2()} {
			c := d.Cost(m, in, 29, 10)
			if c.RetrainS <= 0 {
				b.Fatal("non-positive cost")
			}
		}
	}
}

// BenchmarkKSweep regenerates the K-selection ablation (A1).
func BenchmarkKSweep(b *testing.B) {
	users, _ := benchSetup(b)
	summaries := make([][]float64, len(users))
	for i, u := range users {
		summaries[i] = u.Summary(1.0)
	}
	std := cluster.FitStandardizer(summaries)
	zs := std.ApplyAll(summaries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep, err := cluster.SweepK(zs, 2, 6, cluster.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cluster.BestK(sweep)), "bestK")
	}
}

// BenchmarkColdStartFraction regenerates the cold-start data-budget
// ablation (A2): assignment with 10 % of the newcomer's unlabeled data.
func BenchmarkColdStartFraction(b *testing.B) {
	users, cfg := benchSetup(b)
	p, err := core.ClusterOnly(users[:len(users)-1], cfg.WithDefaults())
	if err != nil {
		b.Fatal(err)
	}
	newcomer := users[len(users)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := p.Assign(newcomer, 0.1)
		if a.Cluster < 0 {
			b.Fatal("bad assignment")
		}
	}
}
