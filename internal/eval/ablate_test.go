package eval

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
)

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
