package eval

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wemac"
)

func TestBinaryMetricsKnown(t *testing.T) {
	yTrue := []int{1, 1, 1, 0, 0, 0}
	yPred := []int{1, 1, 0, 0, 0, 1}
	m, err := BinaryMetrics(yTrue, yPred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Accuracy-4.0/6) > 1e-12 {
		t.Errorf("accuracy %g", m.Accuracy)
	}
	// tp=2 fp=1 fn=1 → F1 = 2*2/(4+1+1) = 2/3.
	if math.Abs(m.F1-2.0/3) > 1e-12 {
		t.Errorf("F1 %g", m.F1)
	}
	if m.N != 6 {
		t.Errorf("N %d", m.N)
	}
}

func TestBinaryMetricsEdgeCases(t *testing.T) {
	if _, err := BinaryMetrics([]int{1}, []int{1, 0}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := BinaryMetrics(nil, nil); err == nil {
		t.Error("want error for empty input")
	}
	// All-negative truth and predictions: F1 undefined → 0, accuracy 1.
	m, _ := BinaryMetrics([]int{0, 0}, []int{0, 0})
	if m.Accuracy != 1 || m.F1 != 0 {
		t.Errorf("all-negative metrics %+v", m)
	}
}

func TestAggregate(t *testing.T) {
	ms := []Metrics{
		{Accuracy: 0.8, F1: 0.7},
		{Accuracy: 0.6, F1: 0.5},
	}
	a := Aggregate(ms)
	if math.Abs(a.MeanAcc-70) > 1e-9 || math.Abs(a.MeanF1-60) > 1e-9 {
		t.Errorf("agg %+v", a)
	}
	if math.Abs(a.StdAcc-10) > 1e-9 {
		t.Errorf("std %g", a.StdAcc)
	}
	if a.Folds != 2 {
		t.Errorf("folds %d", a.Folds)
	}
	if Aggregate(nil).Folds != 0 {
		t.Error("empty aggregate")
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

func TestSplitForFineTune(t *testing.T) {
	var data []nn.Sample
	for i := 0; i < 10; i++ {
		data = append(data, nn.Sample{X: tensor.New(1), Y: i % 2})
	}
	ft, test := SplitForFineTune(data, 0.2)
	if len(ft)+len(test) != 10 {
		t.Fatalf("split sizes %d + %d", len(ft), len(test))
	}
	// 20% of 5 per class = 1 per class.
	counts := map[int]int{}
	for _, s := range ft {
		counts[s.Y]++
	}
	if counts[0] != 1 || counts[1] != 1 {
		t.Errorf("ft class counts %v", counts)
	}
	// frac 1.0 must still leave at least one test sample per class.
	ft, test = SplitForFineTune(data, 1.0)
	if len(test) == 0 {
		t.Error("frac=1 must not empty the test set")
	}
	// Tiny input.
	one := []nn.Sample{{X: tensor.New(1), Y: 0}}
	ft, test = SplitForFineTune(one, 0.5)
	if len(ft) != 0 || len(test) != 1 {
		t.Errorf("singleton split %d/%d", len(ft), len(test))
	}
}

func TestMeanMetrics(t *testing.T) {
	m := meanMetrics([]Metrics{{Accuracy: 1, F1: 0.5, N: 10}, {Accuracy: 0, F1: 0.5, N: 20}})
	if m.Accuracy != 0.5 || m.F1 != 0.5 || m.N != 30 {
		t.Errorf("%+v", m)
	}
}

// ---- Integration: Table I orderings on a small synthetic population ----

var (
	integOnce  sync.Once
	integUsers []*wemac.UserMaps
	integCfg   core.Config
)

// integSetup generates a small population and config shared by the
// integration tests (generation + extraction is the expensive part).
func integSetup(t *testing.T) ([]*wemac.UserMaps, core.Config) {
	t.Helper()
	integOnce.Do(func() {
		ds := wemac.Generate(wemac.Config{
			ArchetypeSizes:     []int{5, 4, 3, 3},
			TrialsPerVolunteer: 10,
			TrialSec:           45,
			Seed:               31,
		})
		ecfg := features.ExtractorConfig{WindowSec: 8, Windows: 4}
		users, err := wemac.ExtractAll(ds, ecfg)
		if err != nil {
			panic(err)
		}
		integUsers = users
		cfg := core.Config{
			K: 4, SubK: 2,
			Extractor: ecfg,
			Model: nn.ModelConfig{
				Conv1: 3, Conv2: 6,
				K1H: 5, K1W: 3, K2H: 3, K2W: 3, Pool1: 4, Pool2: 3,
				LSTMHidden: 16, Dropout: 0.1, Classes: 2, Seed: 1,
			},
			Train:    nn.TrainConfig{Epochs: 30, BatchSize: 16, LR: 3e-3, GradClip: 5, ValFrac: 0.15, Patience: 6, Seed: 1},
			FineTune: nn.TrainConfig{Epochs: 6, BatchSize: 8, LR: 1e-3, GradClip: 5, Seed: 1},
			Cluster:  integCfg.Cluster, RefineRounds: 3, RefineSampleFrac: 0.8, Seed: 1,
		}
		integCfg = cfg
	})
	return integUsers, integCfg
}

func TestRunGeneralModel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	users, cfg := integSetup(t)
	agg, err := RunGeneralModel(users, cfg, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Folds != 8 {
		t.Fatalf("folds %d", agg.Folds)
	}
	if agg.MeanAcc < 50 || agg.MeanAcc > 100 {
		t.Errorf("general accuracy %.1f implausible", agg.MeanAcc)
	}
	if _, err := RunGeneralModel(users, cfg, 1, 3); err == nil {
		t.Error("want error for group size 1")
	}
}

func TestRunCLOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	users, cfg := integSetup(t)
	res, err := RunCL(users, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CL.Folds == 0 || res.RT.Folds == 0 {
		t.Fatalf("fold counts %d / %d", res.CL.Folds, res.RT.Folds)
	}
	// The paper's central claim: intra-cluster models beat cross-cluster
	// evaluation by a wide margin.
	if res.CL.MeanAcc <= res.RT.MeanAcc {
		t.Errorf("CL %.1f must beat RT CL %.1f", res.CL.MeanAcc, res.RT.MeanAcc)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(users) {
		t.Errorf("sizes %v", res.Sizes)
	}
	// Per-cluster folds must sum to the overall CL fold count.
	perFolds := 0
	for _, pc := range res.PerCluster {
		perFolds += pc.Folds
	}
	if perFolds != res.CL.Folds {
		t.Errorf("per-cluster folds %d != CL folds %d", perFolds, res.CL.Folds)
	}
}

func TestRunLOSOAndCLEAR(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	users, cfg := integSetup(t)
	run, err := RunLOSO(users, cfg, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Folds) != len(users) {
		t.Fatalf("folds %d", len(run.Folds))
	}
	res, err := EvaluateCLEAR(run, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Cold-start assignment should mostly hit the right archetype.
	if res.AssignmentAccuracy < 0.6 {
		t.Errorf("assignment accuracy %.2f", res.AssignmentAccuracy)
	}
	// Ordering claims (soft, small population).
	if res.WithoutFT.MeanAcc <= res.RT.MeanAcc {
		t.Errorf("CLEAR w/o FT %.1f must beat RT CLEAR %.1f",
			res.WithoutFT.MeanAcc, res.RT.MeanAcc)
	}
	if res.WithFT.Folds == 0 {
		t.Fatal("no FT folds")
	}

	// Table II on the same run (the expensive pipelines are reused).
	t2, err := RunTable2(run, edge.Devices(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Results) != 3 {
		t.Fatalf("%d device results", len(t2.Results))
	}
	gpu, tpu, ncs := t2.Results[0], t2.Results[1], t2.Results[2]
	// GPU no-FT equals the float CLEAR w/o FT row.
	if math.Abs(gpu.NoFT.MeanAcc-res.WithoutFT.MeanAcc) > 1e-9 {
		t.Errorf("GPU NoFT %.2f != CLEAR w/o FT %.2f", gpu.NoFT.MeanAcc, res.WithoutFT.MeanAcc)
	}
	// GPU FT is Table I's CLEAR w FT: one recipe at the same seeds on the
	// same fp64 weights.
	if gpu.FT != res.WithFT {
		t.Errorf("GPU FT acc %.2f±%.2f f1 %.2f±%.2f (%d folds) != CLEAR w FT acc %.2f±%.2f f1 %.2f±%.2f (%d folds)",
			gpu.FT.MeanAcc, gpu.FT.StdAcc, gpu.FT.MeanF1, gpu.FT.StdF1, gpu.FT.Folds,
			res.WithFT.MeanAcc, res.WithFT.StdAcc, res.WithFT.MeanF1, res.WithFT.StdF1, res.WithFT.Folds)
	}
	// int8 should hurt at least as much as fp16 (soft: allow 5-point slack
	// on this small population).
	if tpu.NoFT.MeanAcc > ncs.NoFT.MeanAcc+5 {
		t.Errorf("TPU NoFT %.1f unexpectedly above NCS2 %.1f", tpu.NoFT.MeanAcc, ncs.NoFT.MeanAcc)
	}
	// Cost orderings are hard requirements.
	if !(tpu.Cost.TestS < ncs.Cost.TestS) {
		t.Error("TPU inference must be faster than NCS2")
	}
	if !(tpu.Cost.RetrainS < ncs.Cost.RetrainS) {
		t.Error("TPU retraining must be faster than NCS2")
	}
	if !(gpu.Cost.TestS < tpu.Cost.TestS) {
		t.Error("GPU must be fastest")
	}
}

func TestRunLOSOTooFewUsers(t *testing.T) {
	users, cfg := integSetup(t)
	if _, err := RunLOSO(users[:3], cfg, 0.1, nil); err == nil {
		t.Error("want error for too few users")
	}
}
