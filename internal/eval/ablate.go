package eval

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/wemac"
)

// ArchResult is one architecture's CL-validation performance.
type ArchResult struct {
	Arch   nn.Arch
	CL     Agg
	Params int
	MACs   int64
}

// RunArchAblation reruns the CL validation (global clustering +
// intra-cluster LOSO) once per architecture, quantifying the paper's Fig. 2
// design claim that the CNN-LSTM "effectively integrates the feature maps'
// global and sequential information" versus its CNN-only and LSTM-only
// ablations.
func RunArchAblation(users []*wemac.UserMaps, cfg core.Config, archs []nn.Arch) ([]ArchResult, error) {
	cfg = cfg.WithDefaults()
	var out []ArchResult
	for _, arch := range archs {
		acfg := cfg
		acfg.Model.Arch = arch
		res, err := RunCL(users, acfg)
		if err != nil {
			return nil, err
		}
		mcfg := acfg.Model
		m := nn.NewModel(mcfg)
		in := []int{mcfg.InH, mcfg.InW}
		out = append(out, ArchResult{
			Arch:   arch,
			CL:     res.CL,
			Params: m.NumParams(),
			MACs:   m.TotalFLOPs(in),
		})
	}
	return out, nil
}

// ClusteringResult is one clustering algorithm's downstream performance.
type ClusteringResult struct {
	Name string
	CL   Agg
	RT   Agg
	// Purity is the mean dominant-archetype fraction of the clusters
	// (generator ground truth).
	Purity float64
	Sizes  []int
}

// ClusterAssigner produces a K-partition of user summaries; the k-means
// path and alternative algorithms plug in here.
type ClusterAssigner func(points [][]float64, k int, seed int64) ([]int, error)

// ClusteringAlgorithms is ablation A5's set: the paper's refined k-means,
// Ward, average and complete agglomerative linkage, and a random balanced
// partition as the control.
func ClusteringAlgorithms(cfg core.Config) map[string]ClusterAssigner {
	cfg = cfg.WithDefaults()
	agglo := func(l cluster.Linkage) ClusterAssigner {
		return func(pts [][]float64, k int, _ int64) ([]int, error) {
			res, err := cluster.Agglomerative(pts, k, l)
			if err != nil {
				return nil, err
			}
			return res.Assign, nil
		}
	}
	return map[string]ClusterAssigner{
		"kmeans+refine": func(pts [][]float64, k int, seed int64) ([]int, error) {
			c := cfg
			c.K, c.Seed = k, seed
			res, err := core.Cluster(pts, c)
			if err != nil {
				return nil, err
			}
			return res.Assign, nil
		},
		"ward":     agglo(cluster.WardLinkage),
		"average":  agglo(cluster.AverageLinkage),
		"complete": agglo(cluster.CompleteLinkage),
		"random": func(pts [][]float64, k int, seed int64) ([]int, error) {
			assign := make([]int, len(pts))
			for i := range assign {
				assign[i] = i % k // balanced, then shuffled
			}
			newRand(seed).Shuffle(len(assign), func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
			return assign, nil
		},
	}
}

// RunClusteringAblation reruns intra-cluster LOSO with the partitions of
// each supplied clustering algorithm, isolating how much of CLEAR's gain
// comes from the specific clustering method versus any reasonable
// partition. Algorithms run, and results come back, in name order.
func RunClusteringAblation(users []*wemac.UserMaps, cfg core.Config, algos map[string]ClusterAssigner) ([]ClusteringResult, error) {
	cfg = cfg.WithDefaults()
	summaries := make([][]float64, len(users))
	for i, u := range users {
		summaries[i] = u.Summary(1.0)
	}
	std := cluster.FitStandardizer(summaries)
	zs := std.ApplyAll(summaries)

	names := make([]string, 0, len(algos))
	for name := range algos {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []ClusteringResult
	for _, name := range names {
		assign, err := algos[name](zs, cfg.K, cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := intraClusterLOSO(users, assign, cfg, cfg.Seed*509, 43)
		if err != nil {
			return nil, err
		}
		out = append(out, ClusteringResult{
			Name:   name,
			CL:     res.CL,
			RT:     res.RT,
			Purity: partitionPurity(users, assign, cfg.K),
			Sizes:  res.Sizes,
		})
	}
	return out, nil
}

func partitionPurity(users []*wemac.UserMaps, assign []int, k int) float64 {
	pure, total := 0, 0
	for c := 0; c < k; c++ {
		counts := map[int]int{}
		n := 0
		for i, a := range assign {
			if a == c {
				counts[users[i].Archetype]++
				n++
			}
		}
		best := 0
		for _, v := range counts {
			if v > best {
				best = v
			}
		}
		pure += best
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(pure) / float64(total)
}

func partitionSizes(assign []int, k int) []int {
	sizes := make([]int, k)
	for _, a := range assign {
		if a >= 0 && a < k {
			sizes[a]++
		}
	}
	return sizes
}
