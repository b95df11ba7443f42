// Package core implements the CLEAR methodology itself — the paper's
// primary contribution. It wires the substrates together:
//
//   - Stage 1 ("cloud"): per-user feature summaries → global clustering
//     (k-means++ with the iterative refinement of [19]) → hierarchical
//     sub-clusters → one CNN-LSTM classifier trained per cluster.
//   - Stage 2 ("edge"): a new user's *unlabeled* feature maps → cold-start
//     cluster assignment by minimum summed distance to the assigned
//     cluster's internal centroids → optional fine-tuning of the cluster
//     checkpoint with a small labelled fraction of the user's data.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/wemac"
)

// Pipeline-stage telemetry: fit/assign/fine-tune counts.
var (
	mCoreFits      = obs.GetCounter("core.fits")
	mCoreAssigns   = obs.GetCounter("core.assigns")
	mCoreFineTunes = obs.GetCounter("core.finetunes")
)

// tensorT shortens signatures below.
type tensorT = tensor.Tensor

// Config parameterises a CLEAR pipeline.
type Config struct {
	// K is the number of top-level clusters (the paper selects 4).
	K int
	// SubK is the number of internal sub-cluster centroids per cluster used
	// by cold-start assignment.
	SubK int
	// Extractor controls feature-map generation (needed to size the model).
	Extractor features.ExtractorConfig
	// Model is the per-cluster classifier architecture. InH/InW are
	// overridden from the extractor configuration.
	Model nn.ModelConfig
	// Train controls per-cluster pre-training.
	Train nn.TrainConfig
	// FineTune controls edge-side personalisation.
	FineTune nn.TrainConfig
	// Cluster passes through to k-means.
	Cluster cluster.Options
	// RefineRounds and RefineSampleFrac control the [19]-style iterative
	// refinement after the initial k-means.
	RefineRounds     int
	RefineSampleFrac float64
	// FTBlend interpolates the fine-tuned weights with the original
	// checkpoint: final = FTBlend·original + (1−FTBlend)·fine-tuned.
	// 0 keeps the pure fine-tuned model; ~0.3–0.5 damps the variance of
	// updates estimated from very few labelled maps (weight-space
	// ensembling).
	FTBlend float64
	// FTAugment is the number of noise-jittered copies of each labelled
	// sample added during fine-tuning (0 disables). With only a handful of
	// labelled maps from a new user, augmentation is what makes gradient
	// descent extract the user-specific signal instead of memorising the
	// few points (cf. the user-adaptive transfer learning of the paper's
	// reference [12]).
	FTAugment int
	// FTAugmentNoise is the augmentation noise scale in units of each
	// feature's training-set standard deviation.
	FTAugmentNoise float64
	// DisableBaselineCorrect turns off the stimulus-locked baseline
	// correction of classifier inputs (see features.BaselineCorrect).
	// Correction is on by default: it removes user/group offsets so models
	// learn response dynamics; the clustering stage always sees raw
	// summaries either way.
	DisableBaselineCorrect bool
	// Seed namespaces all stochastic steps.
	Seed int64
}

// DefaultConfig returns the fast-profile configuration used by the
// experiment harness (identical code path to the paper profile, reduced
// widths/epochs so the full LOSO protocol runs on a laptop CPU).
func DefaultConfig() Config {
	ecfg := features.DefaultExtractorConfig()
	mcfg := nn.FastModelConfig(ecfg.Windows)
	tcfg := nn.DefaultTrainConfig()
	ft := tcfg
	// Fine-tuning sees only a handful of labelled maps; moderate LR over
	// few epochs with noise augmentation (FTAugment below) extracts the
	// user-specific signal without catastrophic forgetting.
	ft.Epochs = 15
	ft.LR = 3e-3
	ft.BatchSize = 8
	ft.ValFrac = 0 // fine-tuning uses every labelled sample
	ft.Patience = 0
	return Config{
		FTAugment:        8,
		FTAugmentNoise:   0.2,
		K:                4,
		SubK:             2,
		Extractor:        ecfg,
		Model:            mcfg,
		Train:            tcfg,
		FineTune:         ft,
		Cluster:          cluster.Options{Restarts: 8, MaxIter: 100},
		RefineRounds:     5,
		RefineSampleFrac: 0.8,
		Seed:             1,
	}
}

// PaperConfig returns the full-size profile (paper-width model, longer
// training).
func PaperConfig() Config {
	cfg := DefaultConfig()
	cfg.Model = nn.PaperModelConfig(cfg.Extractor.Windows)
	cfg.Train.Epochs = 30
	cfg.Train.Patience = 8
	cfg.FineTune.Epochs = 15
	return cfg
}

// ProfileConfig returns the named experiment profile, "fast"
// (DefaultConfig) or "paper" (PaperConfig), with its Seed set.
func ProfileConfig(profile string, seed int64) (Config, error) {
	var cfg Config
	switch profile {
	case "fast":
		cfg = DefaultConfig()
	case "paper":
		cfg = PaperConfig()
	default:
		return Config{}, fmt.Errorf("core: unknown profile %q (want fast or paper)", profile)
	}
	cfg.Seed = seed
	return cfg, nil
}

// WithDefaults returns a copy of c with unset fields defaulted and the
// model input dimensions sized to the extractor output.
func (c Config) WithDefaults() Config {
	c.fillDefaults()
	return c
}

func (c *Config) fillDefaults() {
	if c.K == 0 {
		c.K = 4
	}
	if c.SubK == 0 {
		c.SubK = 2
	}
	if c.Extractor.Windows == 0 {
		c.Extractor = features.DefaultExtractorConfig()
	}
	if c.Model.LSTMHidden == 0 {
		c.Model = nn.FastModelConfig(c.Extractor.Windows)
	}
	c.Model.InH = features.TotalFeatureCount
	c.Model.InW = c.Extractor.Windows
}

// Pipeline is a trained CLEAR system ready for new users.
//
// Concurrency: once built (by Train, ClusterOnly, or Load), a Pipeline is
// read-only and safe for any number of concurrent readers. Assign,
// AssignMaps, Apply, SamplesFor, ModelFor, and ClusterSizes allocate
// their results and never write to shared state. The one sharp edge is
// the *nn.Model values in Models (returned by ModelFor): layers cache
// per-forward scratch state, so running inference or fine-tuning on the
// same model instance from multiple goroutines requires external
// serialisation — clone the model per goroutine, or route requests through
// a serialising executor (internal/serve does the latter). FineTune itself
// is safe to call concurrently: it clones the checkpoint before training.
// Tune is not a reader: it trains the model it is given in place, so that
// model must be the caller's own copy.
type Pipeline struct {
	Cfg Config
	// Norm z-scores feature maps with statistics from the training users.
	Norm *features.Normalizer
	// Std standardises per-user summary vectors before clustering.
	Std *cluster.Standardizer
	// Hier holds the top-level clusters and their internal centroids.
	Hier *cluster.Hierarchy
	// Models holds one trained classifier per cluster.
	Models []*nn.Model
	// UserCluster maps each training-user index to its cluster.
	UserCluster []int
	// TrainUserIDs records the volunteer IDs used for training, in order.
	TrainUserIDs []int
	// Fault, when non-nil, arms deterministic fault injection on the
	// pipeline's failure points (currently fault.ModelBuild in Tune).
	// Not serialised; set it after Load when chaos-testing.
	Fault *fault.Injector
}

// ClusterOnly builds the clustering stage of a pipeline (summaries,
// standardiser, hierarchy, normaliser) without training any models. Used
// by assignment-only analyses such as the cold-start ablation.
func ClusterOnly(users []*wemac.UserMaps, cfg Config) (*Pipeline, error) {
	return build(users, cfg, false)
}

// Train builds a complete CLEAR pipeline from the training users' feature
// maps. It is the paper's Stage 1.
func Train(users []*wemac.UserMaps, cfg Config) (*Pipeline, error) {
	return build(users, cfg, true)
}

func build(users []*wemac.UserMaps, cfg Config, trainModels bool) (*Pipeline, error) {
	cfg.fillDefaults()
	if len(users) < cfg.K {
		return nil, fmt.Errorf("core: %d users < K=%d clusters", len(users), cfg.K)
	}
	sp := obs.StartSpan("core.fit")
	defer sp.End()
	mCoreFits.Inc()

	// Per-user unlabeled summaries → standardised clustering space.
	csp := obs.StartSpan("core.cluster")
	summaries := make([][]float64, len(users))
	for i, u := range users {
		summaries[i] = u.Summary(1.0)
	}
	std := cluster.FitStandardizer(summaries)
	zs := std.ApplyAll(summaries)

	top, err := Cluster(zs, cfg)
	if err != nil {
		csp.End()
		return nil, fmt.Errorf("core: global clustering: %w", err)
	}
	copts := cfg.Cluster
	copts.Seed = cfg.Seed*31 + 7
	hier, err := cluster.BuildHierarchy(zs, top, cfg.SubK, copts)
	csp.End()
	if err != nil {
		return nil, fmt.Errorf("core: hierarchy: %w", err)
	}

	// Normalisation statistics come from training users only.
	nsp := obs.StartSpan("core.normalize")
	norm := fitNorm(users, cfg)
	nsp.End()

	p := &Pipeline{
		Cfg: cfg, Norm: norm, Std: std, Hier: hier,
		UserCluster: top.Assign,
		Models:      make([]*nn.Model, cfg.K),
	}
	for _, u := range users {
		p.TrainUserIDs = append(p.TrainUserIDs, u.ID)
	}

	if !trainModels {
		return p, nil
	}

	// One classifier per cluster.
	for k := 0; k < cfg.K; k++ {
		var data []nn.Sample
		for i, u := range users {
			if top.Assign[i] != k {
				continue
			}
			data = append(data, p.SamplesFor(u)...)
		}
		tsp := obs.StartSpan("core.train_cluster")
		m, err := p.trainModel(data, cfg.Seed*1009+int64(k), cfg.Seed*2003+int64(k))
		tsp.End()
		if err != nil {
			return nil, fmt.Errorf("core: training cluster %d: %w", k, err)
		}
		p.Models[k] = m
	}
	return p, nil
}

// Cluster partitions standardised per-user summaries into cfg.K groups:
// k-means++ with cfg.Cluster at seed Seed·31+7, then the [19]-style
// iterative refinement at seed Seed·31+11. It is the global clustering
// step of Train and ClusterOnly.
func Cluster(zs [][]float64, cfg Config) (*cluster.Result, error) {
	copts := cfg.Cluster
	copts.Seed = cfg.Seed*31 + 7
	top, err := cluster.KMeans(zs, cfg.K, copts)
	if err != nil {
		return nil, err
	}
	return cluster.Refine(zs, top, cfg.RefineRounds, cfg.RefineSampleFrac, cfg.Seed*31+11), nil
}

// TrainPooled trains one classifier from scratch on the pooled samples of
// users, with the input normaliser fitted on those users alone (LOSO
// hygiene): the general model and every CL-validation fold. The model
// and the data are seeded with seed. The result has no clustering stage
// (Std, Hier and UserCluster are nil): Models[0] is the classifier, and
// SamplesFor gives its input for any user.
func TrainPooled(users []*wemac.UserMaps, cfg Config, seed int64) (*Pipeline, error) {
	cfg.fillDefaults()
	p := &Pipeline{Cfg: cfg, Norm: fitNorm(users, cfg)}
	var data []nn.Sample
	for _, u := range users {
		data = append(data, p.SamplesFor(u)...)
	}
	m, err := p.trainModel(data, seed, seed)
	if err != nil {
		return nil, err
	}
	p.Models = []*nn.Model{m}
	return p, nil
}

// fitNorm fits the classifier-input normaliser on users' maps only, in
// the representation the classifier consumes.
func fitNorm(users []*wemac.UserMaps, cfg Config) *features.Normalizer {
	var allMaps []*tensorT
	for _, u := range users {
		for _, m := range u.AllMaps() {
			allMaps = append(allMaps, correctMap(m, cfg))
		}
	}
	return features.FitNormalizer(allMaps)
}

// trainModel trains a fresh Cfg.Model classifier on data with Cfg.Train.
func (p *Pipeline) trainModel(data []nn.Sample, modelSeed, trainSeed int64) (*nn.Model, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: no training data")
	}
	mcfg := p.Cfg.Model
	mcfg.Seed = modelSeed
	m := nn.NewModel(mcfg)
	tcfg := p.Cfg.Train
	tcfg.Seed = trainSeed
	if _, err := nn.Train(m, data, tcfg); err != nil {
		return nil, err
	}
	return m, nil
}

// SamplesFor converts a user's labelled feature maps into classifier
// inputs: baseline-corrected (unless disabled) and z-normalised with the
// training population's statistics.
func (p *Pipeline) SamplesFor(u *wemac.UserMaps) []nn.Sample {
	out := make([]nn.Sample, len(u.Maps))
	for i, lm := range u.Maps {
		out[i] = nn.Sample{X: p.Apply(lm.Map), Y: int(lm.Label)}
	}
	return out
}

// Apply converts one raw feature map into the classifier input
// representation. It satisfies the edge monitor's Normalizer interface, so
// deployments transform streaming maps identically to training.
func (p *Pipeline) Apply(m *tensorT) *tensorT {
	return p.Norm.Apply(correctMap(m, p.Cfg))
}

// correctMap applies the configured per-map baseline correction.
func correctMap(m *tensorT, cfg Config) *tensorT {
	if cfg.DisableBaselineCorrect {
		return m
	}
	return features.BaselineCorrect(m)
}

// Assignment is the cold-start result for a new user.
type Assignment struct {
	// Cluster is the selected cluster index.
	Cluster int
	// Scores holds the per-cluster mean distances to internal centroids
	// (lower is closer); Scores[Cluster] is the minimum.
	Scores []float64
	// FracUsed records how much of the user's unlabeled data was used.
	FracUsed float64
}

// Assign performs unsupervised cold-start cluster assignment using the
// first frac of the new user's *unlabeled* feature maps (the paper uses
// 10 %).
func (p *Pipeline) Assign(u *wemac.UserMaps, frac float64) Assignment {
	return p.assignSummaryCtx(backgroundCtx, u.Summary(frac), frac)
}

// AssignMaps is the streaming-ingest form of Assign: it assigns from an
// explicit set of raw (un-normalised) feature maps accumulated so far, as
// a serving layer receives them window by window. fracUsed only annotates
// the returned Assignment. The scoring path is identical to Assign, so a
// served cold-start decision is bitwise-equal to the batch eval path given
// the same maps.
func (p *Pipeline) AssignMaps(maps []*tensorT, fracUsed float64) Assignment {
	return p.assignSummaryCtx(backgroundCtx, features.Summary(maps), fracUsed)
}

// AssignMapsCtx is AssignMaps with request-scoped tracing: the core.assign
// span lands in the obs.Trace ctx carries, and is not recorded at all when
// ctx carries none — a served window must not grow the process-wide
// background trace, which is never finished.
func (p *Pipeline) AssignMapsCtx(ctx context.Context, maps []*tensorT, fracUsed float64) Assignment {
	return p.assignSummaryCtx(ctx, features.Summary(maps), fracUsed)
}

// AssignFromSummary performs cold-start assignment from an explicit
// unlabeled per-feature summary vector (the features.Summary
// representation). It is the incremental-evidence entry point: a serving
// layer that maintains a rolling summary over recent windows (e.g. the
// drift detector in internal/serve) can re-score the assignment on every
// window without re-touching the underlying maps. The scoring path is
// identical to Assign/AssignMaps, so rolling verdicts are directly
// comparable to the original cold-start decision.
func (p *Pipeline) AssignFromSummary(summary []float64, fracUsed float64) Assignment {
	return p.assignSummaryCtx(backgroundCtx, summary, fracUsed)
}

// AssignFromSummaryCtx is AssignFromSummary with request-scoped tracing.
func (p *Pipeline) AssignFromSummaryCtx(ctx context.Context, summary []float64, fracUsed float64) Assignment {
	return p.assignSummaryCtx(ctx, summary, fracUsed)
}

// backgroundCtx carries the process-wide background trace: the non-Ctx
// entry points the batch binaries call record their spans there, so the
// span tree printed at exit keeps its core.assign/core.finetune rows.
var backgroundCtx = obs.WithTrace(context.Background(), obs.BackgroundTrace())

func (p *Pipeline) assignSummaryCtx(ctx context.Context, summary []float64, fracUsed float64) Assignment {
	sp := obs.StartSpanCtx(ctx, "core.assign")
	defer sp.End()
	mCoreAssigns.Inc()
	s := p.Std.Apply(summary)
	best, scores := p.Hier.Assign(s)
	return Assignment{Cluster: best, Scores: scores, FracUsed: fracUsed}
}

// Margin returns the relative score gap between the selected cluster and
// the runner-up: (second − best) / best. Small margins mean the user sits
// between clusters. The serving layer records it in the assignment log and
// the session stats, and its drift detector measures the re-assignment gap
// in the same units, (assigned − best) / best, against DriftThreshold.
func (a Assignment) Margin() float64 {
	if len(a.Scores) < 2 {
		return 0
	}
	best := a.Scores[a.Cluster]
	second := -1.0
	for k, s := range a.Scores {
		if k == a.Cluster {
			continue
		}
		if second < 0 || s < second {
			second = s
		}
	}
	if best <= 0 {
		return 0
	}
	return (second - best) / best
}

// RunnerUp returns the index of the second-closest cluster — the
// assignment the user would have received had the selected cluster not
// existed. −1 when fewer than two scores are available. Together with
// Margin it quantifies how contested the assignment is: a drift monitor
// watches whether the runner-up starts beating the assigned cluster on
// fresh data.
func (a Assignment) RunnerUp() int {
	if len(a.Scores) < 2 {
		return -1
	}
	second, runner := -1.0, -1
	for k, s := range a.Scores {
		if k == a.Cluster {
			continue
		}
		if runner < 0 || s < second {
			second, runner = s, k
		}
	}
	return runner
}

// ModelFor returns the pre-trained checkpoint of a cluster.
func (p *Pipeline) ModelFor(k int) *nn.Model { return p.Models[k] }

// FineTune personalises the cluster-k checkpoint with the user's labelled
// samples, returning a new model (the stored checkpoint is untouched).
func (p *Pipeline) FineTune(k int, data []nn.Sample) (*nn.Model, error) {
	return p.FineTuneCtx(backgroundCtx, k, data)
}

// FineTuneCtx is FineTune with request-scoped tracing: the core.finetune
// span attaches to the trace carried by ctx, and to nothing otherwise.
func (p *Pipeline) FineTuneCtx(ctx context.Context, k int, data []nn.Sample) (*nn.Model, error) {
	m := p.Models[k].Clone()
	if err := p.Tune(ctx, m, k, data, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// Tune is the one fine-tuning recipe. It trains m, a caller-owned copy of
// the cluster-k checkpoint at any precision, in place: the labelled
// samples are expanded with FTAugment noise-jittered copies each (so the
// optimizer sees enough variation to generalise from a handful of maps),
// trained on with Cfg.FineTune at seed Seed·3001+k, and the result is
// blended back toward m's starting weights by FTBlend. keep, when
// non-nil, runs after every epoch and once more after the blend; a
// device passes its weight re-quantisation, since an accelerator stores
// only device-precision weights. m is never cloned: nn.Model.Clone
// rebuilds from the Config and would drop a deployment's activation
// quantisers.
func (p *Pipeline) Tune(ctx context.Context, m *nn.Model, k int, data []nn.Sample, keep func(*nn.Model)) error {
	if len(data) == 0 {
		return fmt.Errorf("core: no fine-tuning data")
	}
	sp := obs.StartSpanCtx(ctx, "core.finetune")
	defer sp.End()
	mCoreFineTunes.Inc()
	if p.Fault.Fire(fault.ModelBuild) {
		err := fmt.Errorf("core: fine-tuning cluster %d: %w", k, fault.ErrInjected)
		sp.Fail(err)
		return err
	}
	var orig []*tensorT
	if p.Cfg.FTBlend > 0 {
		orig = m.Snapshot()
	}
	ft := p.Cfg.FineTune
	ft.Seed = p.Cfg.Seed*3001 + int64(k)
	if keep != nil {
		ft.EpochEnd = func(_ int, m *nn.Model) { keep(m) }
	}
	if _, err := nn.Train(m, p.augmentFT(data, ft.Seed), ft); err != nil {
		err = fmt.Errorf("core: fine-tuning cluster %d: %w", k, err)
		sp.Fail(err)
		return err
	}
	if b := p.Cfg.FTBlend; b > 0 {
		for i, param := range m.Params() {
			for j, w := range param.W.Data {
				param.W.Data[j] = b*orig[i].Data[j] + (1-b)*w
			}
		}
	}
	if keep != nil {
		keep(m)
	}
	return nil
}

// augmentFT expands the labelled samples with FTAugment jittered copies
// each. Inputs are already z-scored, so the noise scale is directly in
// feature standard deviations.
func (p *Pipeline) augmentFT(data []nn.Sample, seed int64) []nn.Sample {
	if p.Cfg.FTAugment <= 0 || p.Cfg.FTAugmentNoise <= 0 {
		return data
	}
	rng := rand.New(rand.NewSource(seed*17 + 3))
	out := make([]nn.Sample, 0, len(data)*(1+p.Cfg.FTAugment))
	out = append(out, data...)
	for _, s := range data {
		for c := 0; c < p.Cfg.FTAugment; c++ {
			x := s.X.Clone()
			for i := range x.Data {
				x.Data[i] += rng.NormFloat64() * p.Cfg.FTAugmentNoise
			}
			out = append(out, nn.Sample{X: x, Y: s.Y})
		}
	}
	return out
}

// ClusterSizes returns how many training users landed in each cluster.
func (p *Pipeline) ClusterSizes() []int {
	sizes := make([]int, p.Cfg.K)
	for _, c := range p.UserCluster {
		sizes[c]++
	}
	return sizes
}
