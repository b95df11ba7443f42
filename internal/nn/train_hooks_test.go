package nn

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// captureLogger collects training log lines for assertions.
type captureLogger struct {
	lines []string
}

func (l *captureLogger) Logf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// TestTrainLoggerCapture checks that a pluggable Logger receives one
// progress line per epoch (Verbose no longer required).
func TestTrainLoggerCapture(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	train, _ := trainToy(t, cfg, 40, 9)
	log := &captureLogger{}
	res, err := Train(m, train, TrainConfig{
		Epochs: 4, BatchSize: 8, LR: 3e-3, ValFrac: 0.2, Seed: 9,
		Logger: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.lines) != res.Epochs {
		t.Fatalf("captured %d lines, want %d (one per epoch)", len(log.lines), res.Epochs)
	}
	for i, line := range log.lines {
		if !strings.Contains(line, fmt.Sprintf("epoch %d:", i)) || !strings.Contains(line, "valacc") {
			t.Errorf("line %d malformed: %q", i, line)
		}
	}
}

// TestTrainOnEpochHook checks the telemetry hook: one call per epoch with
// monotone epoch indices and validation stats present.
func TestTrainOnEpochHook(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	train, _ := trainToy(t, cfg, 40, 11)
	var stats []EpochStats
	epochsBefore := obs.GetCounter("nn.train.epochs").Value()
	res, err := Train(m, train, TrainConfig{
		Epochs: 3, BatchSize: 8, LR: 3e-3, ValFrac: 0.2, Seed: 11,
		OnEpoch: func(s EpochStats) { stats = append(stats, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != res.Epochs {
		t.Fatalf("hook ran %d times, want %d", len(stats), res.Epochs)
	}
	for i, s := range stats {
		if s.Epoch != i || s.Epochs != 3 {
			t.Errorf("stats[%d] epoch = %d/%d", i, s.Epoch, s.Epochs)
		}
		if !s.HasVal {
			t.Errorf("stats[%d] missing validation metrics", i)
		}
		if s.LR <= 0 {
			t.Errorf("stats[%d] LR = %v", i, s.LR)
		}
	}
	if got := obs.GetCounter("nn.train.epochs").Value() - epochsBefore; got != int64(res.Epochs) {
		t.Errorf("epoch counter += %d, want %d", got, res.Epochs)
	}
}

// TestTrainSilentByDefault checks that an unset Logger with Verbose=false
// emits nothing (progress must go through the Logger seam, not stdout).
func TestTrainSilentByDefault(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	train, _ := trainToy(t, cfg, 20, 13)
	// No Logger, no Verbose: nothing should panic and training proceeds;
	// the stdout path is exercised implicitly by Verbose tests elsewhere.
	if _, err := Train(m, train, TrainConfig{Epochs: 1, BatchSize: 8, Seed: 13}); err != nil {
		t.Fatal(err)
	}
}

// TestTrainOnEpochFiresOnEarlyStop checks the hook also sees the epoch
// that triggered early stopping.
func TestTrainOnEpochFiresOnEarlyStop(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	train, _ := trainToy(t, cfg, 40, 15)
	calls := 0
	res, err := Train(m, train, TrainConfig{
		Epochs: 50, BatchSize: 8, LR: 3e-3, ValFrac: 0.2, Patience: 2, Seed: 15,
		OnEpoch: func(EpochStats) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Epochs {
		t.Fatalf("hook ran %d times over %d epochs", calls, res.Epochs)
	}
}

// TestTrainLeavesSpanTreeAlone checks that Train opens no span on the
// process-global background trace: concurrent trainings (the fine-tune
// pool runs several) would otherwise nest inside one another there, and
// the callers already time the interval in their own spans.
func TestTrainLeavesSpanTreeAlone(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	train, _ := trainToy(t, cfg, 40, 13)
	before := obs.SpanTree()
	if _, err := Train(m, train, TrainConfig{Epochs: 2, BatchSize: 8, LR: 3e-3, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	if after := obs.SpanTree(); after != before {
		t.Fatalf("Train changed the background span tree:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
