package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/wemac"
)

// LOSO progress telemetry: folds completed so far (a live progress counter
// for /metrics during a long run) and the configured total.
var (
	mLOSOFolds  = obs.GetCounter("eval.loso.folds_done")
	gLOSOTotal  = obs.GetGauge("eval.loso.folds_total")
	mEvalClears = obs.GetCounter("eval.clear.evaluations")
)

// LOSOFold is one iteration of the full CLEAR LOSO protocol: volunteer V_x
// held out, a pipeline trained on everyone else, V_x cold-start assigned.
type LOSOFold struct {
	// UserIdx indexes the held-out volunteer in the population slice.
	UserIdx int
	// Pipeline was trained without the held-out volunteer.
	Pipeline *core.Pipeline
	// Assignment is the unsupervised cold-start result for the volunteer.
	Assignment core.Assignment
	// ArchetypeMatch reports whether the assigned cluster's dominant
	// ground-truth archetype equals the volunteer's archetype (generator
	// ground truth; a diagnostic the paper cannot compute on real data).
	ArchetypeMatch bool
}

// LOSORun is the full set of folds. Both the Table I CLEAR rows and all of
// Table II consume one run, so the expensive training happens once.
type LOSORun struct {
	Users []*wemac.UserMaps
	Cfg   core.Config
	Folds []LOSOFold
}

// RunLOSO trains one pipeline per held-out volunteer (the paper's CLEAR
// validation protocol) and cold-start assigns each volunteer with caFrac of
// their unlabeled data (the paper uses 0.1). Progress, if non-nil, is
// called after each fold.
func RunLOSO(users []*wemac.UserMaps, cfg core.Config, caFrac float64, progress func(done, total int)) (*LOSORun, error) {
	cfg = cfg.WithDefaults()
	if len(users) < cfg.K+1 {
		return nil, fmt.Errorf("eval: %d users too few for K=%d LOSO", len(users), cfg.K)
	}
	run := &LOSORun{Users: users, Cfg: cfg}
	sp := obs.StartSpan("eval.loso")
	defer sp.End()
	gLOSOTotal.Set(float64(len(users)))
	for i := range users {
		fsp := obs.StartSpan("loso.fold")
		train := withoutIndex(users, i)
		foldCfg := cfg
		foldCfg.Seed = cfg.Seed*7919 + int64(i)
		p, err := core.Train(train, foldCfg)
		if err != nil {
			fsp.End()
			return nil, fmt.Errorf("eval: fold %d: %w", i, err)
		}
		a := p.Assign(users[i], caFrac)
		run.Folds = append(run.Folds, LOSOFold{
			UserIdx:        i,
			Pipeline:       p,
			Assignment:     a,
			ArchetypeMatch: archetypeMatches(p, train, a.Cluster, users[i].Archetype),
		})
		fsp.End()
		mLOSOFolds.Inc()
		if progress != nil {
			progress(i+1, len(users))
		}
	}
	return run, nil
}

// ColdStartAccuracy LOSO-clusters the population (no model training) and
// returns how often a held-out user, assigned from frac of their unlabeled
// maps, lands on the cluster their ground-truth archetype dominates: under
// the hierarchical rule, and under the flat nearest-centroid rule
// (ablation A2).
func ColdStartAccuracy(users []*wemac.UserMaps, cfg core.Config, frac float64) (hier, flat float64, err error) {
	cfg = cfg.WithDefaults()
	nh, nf := 0, 0
	for i, u := range users {
		train := withoutIndex(users, i)
		p, err := core.ClusterOnly(train, cfg)
		if err != nil {
			return 0, 0, err
		}
		if DominantArchetype(p, train, p.Assign(u, frac).Cluster) == u.Archetype {
			nh++
		}
		if DominantArchetype(p, train, p.Hier.AssignFlat(p.Std.Apply(u.Summary(frac)))) == u.Archetype {
			nf++
		}
	}
	n := float64(len(users))
	return float64(nh) / n, float64(nf) / n, nil
}

// DominantArchetype returns the most common ground-truth archetype among
// the training users assigned to cluster k. Ties break toward the lower
// archetype index — a fixed rule, so the diagnostic is deterministic run
// to run instead of riding on map iteration order.
func DominantArchetype(p *core.Pipeline, train []*wemac.UserMaps, k int) int {
	counts := archetypeCounts(p, train, k)
	best, bestArch := -1, -1
	for a, c := range counts {
		if c > best || (c == best && a < bestArch) {
			best, bestArch = c, a
		}
	}
	return bestArch
}

func archetypeCounts(p *core.Pipeline, train []*wemac.UserMaps, k int) map[int]int {
	counts := map[int]int{}
	for i, c := range p.UserCluster {
		if c == k {
			counts[train[i].Archetype]++
		}
	}
	return counts
}

// archetypeMatches reports whether arch is among cluster k's most common
// ground-truth archetypes. A cluster whose majority is tied represents
// every tied archetype equally — the clustering merged them — so
// assigning a user of any tied archetype is not a cold-start mistake.
// (DominantArchetype stays single-valued for surfaces that need one label
// per cluster, e.g. /v1/stats.)
func archetypeMatches(p *core.Pipeline, train []*wemac.UserMaps, k, arch int) bool {
	counts := archetypeCounts(p, train, k)
	best := -1
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	return best >= 0 && counts[arch] == best
}

// CLEARResult carries the three CLEAR rows of Table I.
type CLEARResult struct {
	// WithoutFT is "CLEAR w/o FT": the assigned cluster model on the
	// held-out volunteer's full data.
	WithoutFT Agg
	// RT is "RT CLEAR": the *other* clusters' models on the held-out
	// volunteer (averaged per fold).
	RT Agg
	// WithFT is "CLEAR w FT": the assigned model fine-tuned on ftFrac of
	// the volunteer's labelled maps, tested on the remainder.
	WithFT Agg
	// AssignmentAccuracy is the fraction of folds whose cold-start cluster
	// matched the volunteer's ground-truth archetype.
	AssignmentAccuracy float64
}

// EvaluateCLEAR computes the Table I CLEAR rows from a LOSO run. ftFrac is
// the labelled fraction used for fine-tuning (the paper uses 0.2).
func EvaluateCLEAR(run *LOSORun, ftFrac float64) (CLEARResult, error) {
	sp := obs.StartSpan("eval.clear")
	defer sp.End()
	mEvalClears.Inc()
	var woFolds, rtFolds, ftFolds []Metrics
	matches := 0
	for _, fold := range run.Folds {
		u := run.Users[fold.UserIdx]
		p := fold.Pipeline
		data := p.SamplesFor(u)
		if fold.ArchetypeMatch {
			matches++
		}

		// CLEAR w/o FT.
		m := p.ModelFor(fold.Assignment.Cluster)
		met, err := EvaluateModel(m, data)
		if err != nil {
			return CLEARResult{}, err
		}
		woFolds = append(woFolds, met)

		// RT CLEAR: mean over the other clusters' models.
		var rts []Metrics
		for k := range p.Models {
			if k == fold.Assignment.Cluster {
				continue
			}
			rmet, err := EvaluateModel(p.ModelFor(k), data)
			if err != nil {
				return CLEARResult{}, err
			}
			rts = append(rts, rmet)
		}
		if len(rts) > 0 {
			rtFolds = append(rtFolds, meanMetrics(rts))
		}

		// CLEAR w FT.
		ftTrain, ftTest := SplitForFineTune(data, ftFrac)
		if len(ftTrain) == 0 || len(ftTest) == 0 {
			continue
		}
		ftModel, err := p.FineTune(fold.Assignment.Cluster, ftTrain)
		if err != nil {
			return CLEARResult{}, err
		}
		fmet, err := EvaluateModel(ftModel, ftTest)
		if err != nil {
			return CLEARResult{}, err
		}
		ftFolds = append(ftFolds, fmet)
	}
	res := CLEARResult{
		WithoutFT: Aggregate(woFolds),
		RT:        Aggregate(rtFolds),
		WithFT:    Aggregate(ftFolds),
	}
	if len(run.Folds) > 0 {
		res.AssignmentAccuracy = float64(matches) / float64(len(run.Folds))
	}
	return res, nil
}

// SplitForFineTune takes the leading frac of samples per class for
// fine-tuning (label-stratified, preserving order so the "first sessions"
// interpretation holds) and returns the rest as the test set.
func SplitForFineTune(data []nn.Sample, frac float64) (ft, test []nn.Sample) {
	perClass := map[int]int{}
	for _, s := range data {
		perClass[s.Y]++
	}
	want := map[int]int{}
	for y, n := range perClass {
		w := int(frac*float64(n) + 0.5)
		if w < 1 && n > 1 {
			w = 1
		}
		if w >= n {
			w = n - 1
		}
		if w < 0 {
			w = 0
		}
		want[y] = w
	}
	taken := map[int]int{}
	for _, s := range data {
		if taken[s.Y] < want[s.Y] {
			ft = append(ft, s)
			taken[s.Y]++
		} else {
			test = append(test, s)
		}
	}
	return ft, test
}

// meanMetrics averages a set of metrics into one (equal weights).
func meanMetrics(ms []Metrics) Metrics {
	var acc, f1 float64
	n := 0
	for _, m := range ms {
		acc += m.Accuracy
		f1 += m.F1
		n += m.N
	}
	k := float64(len(ms))
	return Metrics{Accuracy: acc / k, F1: f1 / k, N: n}
}
