package eval

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestModalityGroupsCover123(t *testing.T) {
	groups := ModalityGroups()
	if len(groups) != 3 {
		t.Fatalf("%d groups", len(groups))
	}
	seen := map[int]bool{}
	for _, rows := range groups {
		for _, r := range rows {
			if seen[r] {
				t.Fatalf("row %d in two groups", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != 123 {
		t.Errorf("groups cover %d rows, want 123", len(seen))
	}
}

func TestTopFeatureGroups(t *testing.T) {
	groups, err := TopFeatureGroups("hr_mean", "gsr_tonic_mean")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups["hr_mean"]) != 1 {
		t.Errorf("groups %v", groups)
	}
	if _, err := TopFeatureGroups("no_such_feature"); err == nil {
		t.Error("want error for unknown feature")
	}
}

// TestPermutationImportanceFindsPlantedSignal trains a tiny model whose
// label depends only on rows 0–5, then checks permutation importance ranks
// that group above an irrelevant one.
func TestPermutationImportanceFindsPlantedSignal(t *testing.T) {
	cfg := nn.ModelConfig{
		InH: 24, InW: 5, Conv1: 2, Conv2: 3,
		K1H: 3, K1W: 3, K2H: 3, K2W: 3, Pool1: 2, Pool2: 2,
		LSTMHidden: 6, Classes: 2, Seed: 31,
	}
	m := nn.NewCNNLSTM(cfg)
	train, test := trainToyEval(cfg, 120, 31)
	if _, err := nn.Train(m, train, nn.TrainConfig{Epochs: 20, BatchSize: 8, LR: 3e-3, GradClip: 5, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	if acc := nn.Accuracy(m, test); acc < 0.85 {
		t.Fatalf("fixture accuracy %.2f too low", acc)
	}
	groups := map[string][]int{
		"signal":     {0, 1, 2, 3, 4, 5},
		"irrelevant": {16, 17, 18, 19, 20, 21},
	}
	imps, err := PermutationImportance(m, test, groups, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	if imps[0].Name != "signal" {
		t.Errorf("top importance %q, want signal (%+v)", imps[0].Name, imps)
	}
	if imps[0].Drop < 0.15 {
		t.Errorf("signal drop %.2f too small", imps[0].Drop)
	}
	var irrDrop float64
	for _, im := range imps {
		if im.Name == "irrelevant" {
			irrDrop = im.Drop
		}
	}
	if irrDrop > imps[0].Drop/2 {
		t.Errorf("irrelevant drop %.2f vs signal %.2f", irrDrop, imps[0].Drop)
	}
	if _, err := PermutationImportance(m, nil, groups, 1, 1); err == nil {
		t.Error("want error for empty data")
	}
}

// trainToyEval plants a label signal in rows 0–5.
func trainToyEval(cfg nn.ModelConfig, n int, seed int64) (train, test []nn.Sample) {
	rng := newRand(seed)
	for i := 0; i < n; i++ {
		y := i % 2
		x := tensor.Randn(rng, 0.5, cfg.InH, cfg.InW)
		shift := -1.2
		if y == 1 {
			shift = 1.2
		}
		for r := 0; r < 6; r++ {
			for c := 0; c < cfg.InW; c++ {
				x.Set(x.At(r, c)+shift, r, c)
			}
		}
		s := nn.Sample{X: x, Y: y}
		if i < n*3/4 {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	return train, test
}

func TestRunArchAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	users, cfg := integSetup(t)
	res, err := RunArchAblation(users, cfg, []nn.Arch{nn.ArchCNNLSTM, nn.ArchCNNOnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.CL.Folds == 0 {
			t.Errorf("%s: no folds", r.Arch)
		}
		if r.Params <= 0 || r.MACs <= 0 {
			t.Errorf("%s: params %d MACs %d", r.Arch, r.Params, r.MACs)
		}
	}
}

func TestRunClusteringAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	users, cfg := integSetup(t)
	algos := map[string]ClusterAssigner{
		"kmeans": func(pts [][]float64, k int, seed int64) ([]int, error) {
			res, err := cluster.KMeans(pts, k, cluster.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			return res.Assign, nil
		},
		"ward": func(pts [][]float64, k int, seed int64) ([]int, error) {
			res, err := cluster.Agglomerative(pts, k, cluster.WardLinkage)
			if err != nil {
				return nil, err
			}
			return res.Assign, nil
		},
		"roundrobin": func(pts [][]float64, k int, seed int64) ([]int, error) {
			assign := make([]int, len(pts))
			for i := range assign {
				assign[i] = i % k
			}
			return assign, nil
		},
	}
	res, err := RunClusteringAblation(users, cfg, algos)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ClusteringResult{}
	for _, r := range res {
		byName[r.Name] = r
	}
	// Real clusterings must be purer than round-robin. (On this tiny
	// fixture the CL accuracies are within fold noise of each other —
	// the larger clustering ablation (clear-repro -only ablate) shows the
	// 6–8-point accuracy gap — so only a loose accuracy bound is asserted.)
	if byName["kmeans"].Purity <= byName["roundrobin"].Purity {
		t.Errorf("kmeans purity %.2f vs roundrobin %.2f",
			byName["kmeans"].Purity, byName["roundrobin"].Purity)
	}
	if byName["kmeans"].CL.MeanAcc < byName["roundrobin"].CL.MeanAcc-10 {
		t.Errorf("kmeans CL %.1f far below roundrobin %.1f",
			byName["kmeans"].CL.MeanAcc, byName["roundrobin"].CL.MeanAcc)
	}
	if byName["ward"].Purity < 0.7 {
		t.Errorf("ward purity %.2f", byName["ward"].Purity)
	}
}
