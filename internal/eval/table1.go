package eval

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/wemac"
)

// RunGeneralModel reproduces the paper's "General Model" row: groupSize
// users are drawn at random (11 in the paper, matching the mean cluster
// size), a single population model is LOSO-trained within the group without
// any clustering, and per-fold metrics are aggregated.
func RunGeneralModel(users []*wemac.UserMaps, cfg core.Config, groupSize int, seed int64) (Agg, error) {
	cfg = cfg.WithDefaults()
	if groupSize < 2 || groupSize > len(users) {
		return Agg{}, fmt.Errorf("eval: group size %d invalid for %d users", groupSize, len(users))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(users))
	group := make([]*wemac.UserMaps, groupSize)
	for i := 0; i < groupSize; i++ {
		group[i] = users[perm[i]]
	}
	var folds []Metrics
	for i := range group {
		p, err := core.TrainPooled(withoutIndex(group, i), cfg, seed*101+int64(i))
		if err != nil {
			return Agg{}, err
		}
		met, err := EvaluateModel(p.ModelFor(0), p.SamplesFor(group[i]))
		if err != nil {
			return Agg{}, err
		}
		folds = append(folds, met)
	}
	return Aggregate(folds), nil
}

// CLResult carries both halves of the paper's CL validation block.
type CLResult struct {
	// CL is intra-cluster LOSO performance ("CL validation").
	CL Agg
	// RT is the robustness test: each fold's model evaluated on the users
	// of *other* clusters ("RT CL").
	RT Agg
	// Sizes are the global-clustering cluster sizes.
	Sizes []int
	// PerCluster breaks the CL row down by cluster (index-aligned with
	// Sizes; clusters with fewer than two members have zero folds).
	PerCluster []Agg
}

// RunCL reproduces the "Clustering and Learning validation" block: the
// pipeline's global clustering over the whole population, intra-cluster
// LOSO for each cluster, and the RT cross-cluster evaluation.
func RunCL(users []*wemac.UserMaps, cfg core.Config) (CLResult, error) {
	cfg = cfg.WithDefaults()
	p, err := core.ClusterOnly(users, cfg)
	if err != nil {
		return CLResult{}, err
	}
	return intraClusterLOSO(users, p.UserCluster, cfg, cfg.Seed*307, 41)
}

// intraClusterLOSO runs the CL-validation protocol on a fixed partition:
// for every cluster with at least two members, each member is held out in
// turn, a model is trained on the others (fold fi of cluster k at seed
// seed0 + k·stride + fi), and it is evaluated on the held-out member (CL)
// and on every user outside the cluster (RT).
func intraClusterLOSO(users []*wemac.UserMaps, assign []int, cfg core.Config, seed0, stride int64) (CLResult, error) {
	var clFolds, rtFolds []Metrics
	perCluster := make([]Agg, cfg.K)
	for k := 0; k < cfg.K; k++ {
		var members []int
		for i, c := range assign {
			if c == k {
				members = append(members, i)
			}
		}
		if len(members) < 2 {
			continue // intra-cluster LOSO needs at least 2 members
		}
		var kFolds []Metrics
		for fi, testIdx := range members {
			var train []*wemac.UserMaps
			for _, mi := range members {
				if mi != testIdx {
					train = append(train, users[mi])
				}
			}
			p, err := core.TrainPooled(train, cfg, seed0+int64(k)*stride+int64(fi))
			if err != nil {
				return CLResult{}, err
			}
			m := p.ModelFor(0)
			met, err := EvaluateModel(m, p.SamplesFor(users[testIdx]))
			if err != nil {
				return CLResult{}, err
			}
			clFolds = append(clFolds, met)
			kFolds = append(kFolds, met)

			// RT: the same fold model on every user outside cluster k.
			var outData []nn.Sample
			for i, c := range assign {
				if c != k {
					outData = append(outData, p.SamplesFor(users[i])...)
				}
			}
			if len(outData) > 0 {
				rtMet, err := EvaluateModel(m, outData)
				if err != nil {
					return CLResult{}, err
				}
				rtFolds = append(rtFolds, rtMet)
			}
		}
		perCluster[k] = Aggregate(kFolds)
	}
	return CLResult{
		CL:         Aggregate(clFolds),
		RT:         Aggregate(rtFolds),
		Sizes:      partitionSizes(assign, cfg.K),
		PerCluster: perCluster,
	}, nil
}

func withoutIndex(users []*wemac.UserMaps, i int) []*wemac.UserMaps {
	out := make([]*wemac.UserMaps, 0, len(users)-1)
	out = append(out, users[:i]...)
	return append(out, users[i+1:]...)
}
