package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Sample is one training example: a feature map and its class label.
type Sample struct {
	X *tensor.Tensor
	Y int
}

// Logger receives training progress lines. Library consumers plug their
// own implementation via TrainConfig.Logger to capture logs; when unset,
// output goes to stdout if Verbose is true and nowhere otherwise.
type Logger interface {
	Logf(format string, args ...any)
}

// stdoutLogger preserves the historical Verbose behaviour.
type stdoutLogger struct{}

func (stdoutLogger) Logf(format string, args ...any) { fmt.Printf(format, args...) }

// EpochStats is the per-epoch training telemetry passed to
// TrainConfig.OnEpoch and published as gauges in the obs registry.
type EpochStats struct {
	// Epoch is the 0-based epoch index; Epochs is the configured total.
	Epoch, Epochs int
	// Loss is the mean training loss of this epoch.
	Loss float64
	// LR is the learning rate the optimizer used this epoch.
	LR float64
	// ValAcc and ValLoss are valid only when HasVal is true.
	ValAcc, ValLoss float64
	HasVal          bool
}

// Training telemetry published to the process-global registry; the last
// written value wins, so these read as "most recent epoch anywhere".
var (
	mTrainEpochs = obs.GetCounter("nn.train.epochs")
	mTrainRuns   = obs.GetCounter("nn.train.runs")
	gTrainLoss   = obs.GetGauge("nn.train.loss")
	gTrainValAcc = obs.GetGauge("nn.train.val_acc")
	gTrainLR     = obs.GetGauge("nn.train.lr")
)

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// LR is the base learning rate.
	LR float64
	// Optimizer selects "adam" (default) or "sgd".
	Optimizer string
	// Momentum applies to SGD only.
	Momentum float64
	// WeightDecay is decoupled L2 regularisation.
	WeightDecay float64
	// GradClip bounds the global gradient norm per step (0 disables).
	GradClip float64
	// ValFrac holds out this fraction of the data for checkpoint selection
	// (0 disables validation; the final weights are then the result).
	ValFrac float64
	// Patience stops training after this many epochs without validation
	// improvement (0 disables early stopping).
	Patience int
	// FreezeExcept, when non-empty, freezes every parameter whose Name is
	// not listed: their gradients are cleared before each optimizer step.
	// Used for head-only fine-tuning (e.g. []string{"dense.w", "dense.b"}),
	// which recalibrates the classifier to a new user without disturbing
	// the learned features.
	FreezeExcept []string
	// LRSchedule selects the per-epoch learning-rate schedule:
	// "constant" (default), "cosine" (anneal to ~0 over Epochs), or
	// "step" (halve every StepEvery epochs).
	LRSchedule string
	// StepEvery is the period of the "step" schedule (default 10).
	StepEvery int
	// Seed drives shuffling and the validation split.
	Seed int64
	// Silent suppresses progress output (the default; set Verbose instead).
	Verbose bool
	// Logger, when non-nil, receives all progress lines (and implies
	// Verbose). Excluded from checkpoints (not serialisable).
	Logger Logger `json:"-"`
	// OnEpoch, when non-nil, runs after every epoch with that epoch's
	// telemetry (loss, LR, validation metrics). It fires after EpochEnd so
	// it observes any weight post-processing (e.g. edge re-quantisation).
	// Excluded from checkpoints (not serialisable).
	OnEpoch func(EpochStats) `json:"-"`
	// EpochEnd, when non-nil, runs after every epoch's optimizer steps and
	// before validation. The edge simulator uses it to re-quantise weights
	// so on-device fine-tuning stays representable in device precision.
	// Excluded from checkpoints (not serialisable).
	EpochEnd func(epoch int, m *Model) `json:"-"`
}

// DefaultTrainConfig returns the settings used by the experiment harness's
// fast profile.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:    30,
		BatchSize: 16,
		LR:        3e-3,
		Optimizer: "adam",
		GradClip:  5,
		ValFrac:   0.15,
		Patience:  6,
		Seed:      1,
	}
}

func (c *TrainConfig) fillDefaults() {
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.Optimizer == "" {
		c.Optimizer = "adam"
	}
}

// TrainResult reports what happened during training.
type TrainResult struct {
	Epochs        int     // epochs actually run
	BestValAcc    float64 // best validation accuracy (if ValFrac > 0)
	FinalLoss     float64 // mean training loss of the last epoch
	UsedEarlyStop bool
}

// Train fits the model on data. When cfg.ValFrac > 0 a validation split is
// held out, the best-validation-accuracy weights are kept (the paper's
// "best-performing training checkpoints ... are saved"), and early stopping
// applies after cfg.Patience stale epochs.
func Train(m *Model, data []Sample, cfg TrainConfig) (*TrainResult, error) {
	cfg.fillDefaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("nn: no training data")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Validation split (stratified by label to survive tiny datasets).
	train, val := stratifiedSplit(data, cfg.ValFrac, rng)
	if len(train) == 0 {
		train, val = data, nil
	}

	var opt Optimizer
	switch cfg.Optimizer {
	case "adam":
		opt = NewAdam(cfg.LR, cfg.WeightDecay)
	case "sgd":
		opt = NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	default:
		return nil, fmt.Errorf("nn: unknown optimizer %q", cfg.Optimizer)
	}

	schedule, err := lrSchedule(cfg)
	if err != nil {
		return nil, err
	}
	trainable := map[string]bool{}
	for _, name := range cfg.FreezeExcept {
		trainable[name] = true
	}

	logf := func(string, ...any) {}
	if cfg.Logger != nil {
		logf = cfg.Logger.Logf
	} else if cfg.Verbose {
		logf = stdoutLogger{}.Logf
	}
	mTrainRuns.Inc()

	res := &TrainResult{}
	var bestSnap []*tensor.Tensor
	bestValLoss := math.Inf(1)
	stale := 0
	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}
	params := m.Params()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR * schedule(epoch)
		opt.SetLR(lr)
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			m.ZeroGrad()
			for _, di := range idx[start:end] {
				s := train[di]
				logits := m.Forward(s.X, true)
				loss, grad := CrossEntropy(logits, s.Y)
				epochLoss += loss
				m.Backward(grad)
			}
			// Average gradients over the batch.
			inv := 1 / float64(end-start)
			for _, p := range params {
				p.Grad.ScaleInPlace(inv)
			}
			if len(trainable) > 0 {
				for _, p := range params {
					if !trainable[p.Name] {
						p.Grad.Zero()
					}
				}
			}
			if cfg.GradClip > 0 {
				ClipGradNorm(params, cfg.GradClip)
			}
			opt.Step(params)
		}
		res.Epochs = epoch + 1
		res.FinalLoss = epochLoss / float64(len(idx))
		if cfg.EpochEnd != nil {
			cfg.EpochEnd(epoch, m)
		}

		stats := EpochStats{Epoch: epoch, Epochs: cfg.Epochs, Loss: res.FinalLoss, LR: lr}
		mTrainEpochs.Inc()
		gTrainLoss.Set(res.FinalLoss)
		gTrainLR.Set(lr)

		earlyStop := false
		if len(val) > 0 {
			acc := Accuracy(m, val)
			valLoss := MeanLoss(m, val)
			stats.HasVal, stats.ValAcc, stats.ValLoss = true, acc, valLoss
			gTrainValAcc.Set(acc)
			logf("epoch %d: loss %.4f valacc %.3f valloss %.4f\n", epoch, res.FinalLoss, acc, valLoss)
			// Ties on accuracy are broken by lower validation loss so a
			// saturated early epoch does not freeze the checkpoint.
			if acc > res.BestValAcc || (acc == res.BestValAcc && valLoss < bestValLoss) {
				res.BestValAcc = acc
				bestValLoss = valLoss
				bestSnap = m.Snapshot()
				stale = 0
			} else {
				stale++
				if cfg.Patience > 0 && stale >= cfg.Patience {
					res.UsedEarlyStop = true
					earlyStop = true
				}
			}
		} else {
			logf("epoch %d: loss %.4f\n", epoch, res.FinalLoss)
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(stats)
		}
		if earlyStop {
			break
		}
	}
	if bestSnap != nil {
		if err := m.Restore(bestSnap); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// stratifiedSplit holds out frac of each class for validation. Classes are
// visited in label order, so the shuffles draw from rng in a fixed sequence.
func stratifiedSplit(data []Sample, frac float64, rng *rand.Rand) (train, val []Sample) {
	if frac <= 0 || len(data) < 4 {
		return data, nil
	}
	byClass := map[int][]int{}
	var classes []int
	for i, s := range data {
		if _, ok := byClass[s.Y]; !ok {
			classes = append(classes, s.Y)
		}
		byClass[s.Y] = append(byClass[s.Y], i)
	}
	sort.Ints(classes)
	valSet := map[int]bool{}
	for _, y := range classes {
		idxs := byClass[y]
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		n := int(frac * float64(len(idxs)))
		if n < 1 && len(idxs) > 1 {
			n = 1
		}
		for _, i := range idxs[:n] {
			valSet[i] = true
		}
	}
	for i, s := range data {
		if valSet[i] {
			val = append(val, s)
		} else {
			train = append(train, s)
		}
	}
	return train, val
}

// Accuracy returns the fraction of samples the model classifies correctly.
func Accuracy(m *Model, data []Sample) float64 {
	if len(data) == 0 {
		return 0
	}
	correct := 0
	for _, s := range data {
		if m.Predict(s.X) == s.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}

// MeanLoss returns the mean cross-entropy of the model on data.
func MeanLoss(m *Model, data []Sample) float64 {
	if len(data) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range data {
		logits := m.Forward(s.X, false)
		loss, _ := CrossEntropy(logits, s.Y)
		total += loss
	}
	return total / float64(len(data))
}

// lrSchedule resolves the configured schedule into an epoch → multiplier
// function.
func lrSchedule(cfg TrainConfig) (func(epoch int) float64, error) {
	switch cfg.LRSchedule {
	case "", "constant":
		return func(int) float64 { return 1 }, nil
	case "cosine":
		total := cfg.Epochs
		return func(epoch int) float64 {
			if total <= 1 {
				return 1
			}
			return 0.5 * (1 + math.Cos(math.Pi*float64(epoch)/float64(total-1)))
		}, nil
	case "step":
		every := cfg.StepEvery
		if every <= 0 {
			every = 10
		}
		return func(epoch int) float64 {
			return math.Pow(0.5, float64(epoch/every))
		}, nil
	default:
		return nil, fmt.Errorf("nn: unknown LR schedule %q", cfg.LRSchedule)
	}
}
