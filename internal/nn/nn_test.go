package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// tinyConfig is a minimal architecture for fast unit tests (dropout 0 so
// gradient checks are exact).
func tinyConfig() ModelConfig {
	return ModelConfig{
		InH: 24, InW: 5,
		Conv1: 2, Conv2: 3,
		K1H: 3, K1W: 3, K2H: 3, K2W: 3,
		Pool1: 2, Pool2: 2,
		LSTMHidden: 6,
		Dropout:    0,
		Classes:    2,
		Seed:       7,
	}
}

func randInput(rng *rand.Rand, cfg ModelConfig) *tensor.Tensor {
	return tensor.Randn(rng, 1, cfg.InH, cfg.InW)
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	sum := p[0] + p[1] + p[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum %g", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax ordering %v", p)
	}
	// Stability with huge logits.
	p = Softmax([]float64{1000, 1000})
	if math.IsNaN(p[0]) || math.Abs(p[0]-0.5) > 1e-12 {
		t.Errorf("softmax stability %v", p)
	}
}

func TestCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0}, 2)
	loss, grad := CrossEntropy(logits, 0)
	if math.Abs(loss-math.Log(2)) > 1e-9 {
		t.Errorf("loss %g, want ln2", loss)
	}
	if math.Abs(grad.Data[0]+0.5) > 1e-9 || math.Abs(grad.Data[1]-0.5) > 1e-9 {
		t.Errorf("grad %v", grad.Data)
	}
}

func TestModelForwardShape(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	rng := rand.New(rand.NewSource(1))
	out := m.Forward(randInput(rng, cfg), false)
	if out.Size() != 2 {
		t.Fatalf("output size %d", out.Size())
	}
	for _, v := range out.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite logits")
		}
	}
}

func TestModelDeterministicInit(t *testing.T) {
	cfg := tinyConfig()
	a, b := NewCNNLSTM(cfg), NewCNNLSTM(cfg)
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatal("same seed must give identical weights")
			}
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c := NewCNNLSTM(cfg2)
	if c.Params()[0].W.Data[0] == a.Params()[0].W.Data[0] {
		t.Error("different seeds should differ")
	}
}

func TestGradCheckParams(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	rng := rand.New(rand.NewSource(2))
	x := randInput(rng, cfg)
	reports, err := GradCheck(m, x, 1, 1e-5, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no parameters checked")
	}
	for _, r := range reports {
		if r.Checked == 0 {
			t.Errorf("%s: nothing checked", r.Param)
		}
		if r.MaxRelError > 2e-4 {
			t.Errorf("%s: max relative gradient error %g", r.Param, r.MaxRelError)
		}
	}
}

func TestGradCheckInput(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	rng := rand.New(rand.NewSource(3))
	x := randInput(rng, cfg)
	rel, err := GradCheckInput(m, x, 0, 1e-5, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 2e-4 {
		t.Errorf("input gradient relative error %g", rel)
	}
}

func TestGradAccumulationAcrossSamples(t *testing.T) {
	// Backward twice without ZeroGrad must accumulate (sum) gradients.
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	rng := rand.New(rand.NewSource(4))
	x := randInput(rng, cfg)
	m.ZeroGrad()
	logits := m.Forward(x, true)
	_, g := CrossEntropy(logits, 0)
	m.Backward(g)
	p := m.Params()[0]
	once := p.Grad.Clone()
	logits = m.Forward(x, true)
	_, g = CrossEntropy(logits, 0)
	m.Backward(g)
	for i := range once.Data {
		if math.Abs(p.Grad.Data[i]-2*once.Data[i]) > 1e-9*(1+math.Abs(once.Data[i])) {
			t.Fatalf("gradient did not accumulate at %d: %g vs 2*%g", i, p.Grad.Data[i], once.Data[i])
		}
	}
}

// trainToy builds a linearly separable toy problem over feature maps:
// class 1 maps have a positive mean stripe, class 0 negative.
func trainToy(t *testing.T, cfg ModelConfig, n int, seed int64) ([]Sample, []Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var train, test []Sample
	for i := 0; i < n; i++ {
		y := i % 2
		x := tensor.Randn(rng, 0.5, cfg.InH, cfg.InW)
		shift := -1.2
		if y == 1 {
			shift = 1.2
		}
		for r := 0; r < 8; r++ {
			for c := 0; c < cfg.InW; c++ {
				x.Set(x.At(r, c)+shift, r, c)
			}
		}
		s := Sample{X: x, Y: y}
		if i < n*4/5 {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	return train, test
}

func TestTrainLearnsToyProblem(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	train, test := trainToy(t, cfg, 100, 5)
	res, err := Train(m, train, TrainConfig{
		Epochs: 30, BatchSize: 8, LR: 3e-3, Optimizer: "adam",
		GradClip: 5, ValFrac: 0.15, Patience: 15, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
	if acc := Accuracy(m, test); acc < 0.9 {
		t.Errorf("toy accuracy %.3f, want ≥0.9", acc)
	}
}

func TestTrainSGDAlsoLearns(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	train, test := trainToy(t, cfg, 80, 6)
	_, err := Train(m, train, TrainConfig{
		Epochs: 25, BatchSize: 8, LR: 2e-2, Optimizer: "sgd", Momentum: 0.9,
		GradClip: 5, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, test); acc < 0.85 {
		t.Errorf("SGD toy accuracy %.3f", acc)
	}
}

func TestTrainErrors(t *testing.T) {
	m := NewCNNLSTM(tinyConfig())
	if _, err := Train(m, nil, TrainConfig{}); err == nil {
		t.Error("want error for empty data")
	}
	if _, err := Train(m, []Sample{{X: tensor.New(24, 5), Y: 0}},
		TrainConfig{Optimizer: "nope"}); err == nil {
		t.Error("want error for unknown optimizer")
	}
}

func TestTrainDeterministic(t *testing.T) {
	cfg := tinyConfig()
	train, _ := trainToy(t, cfg, 40, 7)
	// ValFrac > 0 takes the stratified validation split, which must draw
	// from the RNG in the same order on every run.
	tc := TrainConfig{Epochs: 4, BatchSize: 8, LR: 1e-3, ValFrac: 0.15, Seed: 7}
	m1, m2 := NewCNNLSTM(cfg), NewCNNLSTM(cfg)
	if _, err := Train(m1, train, tc); err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m2, train, tc); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].W.Data {
			if p1[i].W.Data[j] != p2[i].W.Data[j] {
				t.Fatal("training must be deterministic for a fixed seed")
			}
		}
	}
}

func TestEarlyStoppingTriggers(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	// Random labels: validation accuracy cannot improve steadily.
	rng := rand.New(rand.NewSource(8))
	var data []Sample
	for i := 0; i < 40; i++ {
		data = append(data, Sample{X: randInput(rng, cfg), Y: rng.Intn(2)})
	}
	res, err := Train(m, data, TrainConfig{
		Epochs: 60, BatchSize: 8, LR: 1e-3, ValFrac: 0.25, Patience: 3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs >= 60 {
		t.Errorf("early stopping never fired (ran %d epochs)", res.Epochs)
	}
}

func TestSnapshotRestore(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	snap := m.Snapshot()
	orig := m.Params()[0].W.Data[0]
	m.Params()[0].W.Data[0] = 42
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.Params()[0].W.Data[0] != orig {
		t.Error("restore failed")
	}
	if err := m.Restore(snap[:1]); err == nil {
		t.Error("want error for wrong snapshot length")
	}
}

func TestCloneIndependence(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	c := m.Clone()
	rng := rand.New(rand.NewSource(9))
	x := randInput(rng, cfg)
	a := m.Forward(x, false)
	b := c.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("clone output differs")
		}
	}
	c.Params()[0].W.Data[0] += 1
	a2 := m.Forward(x, false)
	if a2.Data[0] != a.Data[0] {
		t.Error("mutating clone affected original")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	rng := rand.New(rand.NewSource(10))
	x := randInput(rng, cfg)
	want := m.Forward(x, false)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Forward(x, false)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("loaded model output differs: %v vs %v", got.Data, want.Data)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint stream"))); err == nil {
		t.Error("want error for garbage")
	}
	var buf bytes.Buffer
	m := NewCNNLSTM(tinyConfig())
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // corrupt final weight byte — still loads (no checksum)
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("want error for truncated stream")
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDropout(rng, 0.5)
	x := tensor.Ones(1000)
	outTrain := d.Forward(x, true)
	zeros := 0
	for _, v := range outTrain.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Errorf("dropout zeroed %d of 1000, want ≈500", zeros)
	}
	outEval := d.Forward(x, false)
	for _, v := range outEval.Data {
		if v != 1 {
			t.Fatal("eval mode must be pass-through")
		}
	}
	// Backward mirrors the kept mask.
	d.Forward(x, true)
	g := d.Backward(tensor.Ones(1000))
	for i, k := range d.keep {
		want := 0.0
		if k {
			want = 2
		}
		if g.Data[i] != want {
			t.Fatalf("dropout backward[%d] = %g, want %g", i, g.Data[i], want)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := p.Forward(x, false)
	want := []float64{6, 8, 14, 16}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("pool out %v", out.Data)
		}
	}
	g := p.Backward(tensor.Ones(1, 2, 2))
	if g.At(0, 1, 1) != 1 || g.At(0, 0, 0) != 0 {
		t.Errorf("pool backward wrong: %v", g.Data)
	}
}

func TestSeqReshapeRoundTrip(t *testing.T) {
	s := NewSeqReshape()
	rng := rand.New(rand.NewSource(12))
	x := tensor.Randn(rng, 1, 3, 4, 5)
	out := s.Forward(x, false)
	if out.Dim(0) != 5 || out.Dim(1) != 12 {
		t.Fatalf("seq shape %v", out.Shape)
	}
	// Value mapping: out[w, c*H+h] == x[c, h, w].
	if out.At(2, 1*4+3) != x.At(1, 3, 2) {
		t.Error("seq reshape value mapping wrong")
	}
	back := s.Backward(out)
	for i := range x.Data {
		if back.Data[i] != x.Data[i] {
			t.Fatal("seq reshape backward is not the inverse")
		}
	}
}

func TestModelSummaryAndFLOPs(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	sum := m.Summary([]int{cfg.InH, cfg.InW})
	if sum == "" {
		t.Fatal("empty summary")
	}
	fl := m.TotalFLOPs([]int{cfg.InH, cfg.InW})
	if fl <= 0 {
		t.Errorf("TotalFLOPs = %d", fl)
	}
	if m.NumParams() <= 0 {
		t.Error("NumParams = 0")
	}
}

func TestModelConfigValidate(t *testing.T) {
	bad := tinyConfig()
	bad.InH = 2
	if err := bad.Validate(); err == nil {
		t.Error("want error for tiny input height")
	}
	bad = tinyConfig()
	bad.Conv1 = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero channels")
	}
	if err := tinyConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestPaperAndFastConfigsBuild(t *testing.T) {
	for _, cfg := range []ModelConfig{PaperModelConfig(8), FastModelConfig(8)} {
		m := NewCNNLSTM(cfg)
		rng := rand.New(rand.NewSource(13))
		out := m.Forward(tensor.Randn(rng, 1, cfg.InH, cfg.InW), false)
		if out.Size() != 2 {
			t.Errorf("config %+v output size %d", cfg, out.Size())
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := &Param{Name: "p", W: tensor.New(2), Grad: tensor.FromSlice([]float64{3, 4}, 2)}
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm %g", norm)
	}
	if post := math.Hypot(p.Grad.Data[0], p.Grad.Data[1]); math.Abs(post-1) > 1e-9 {
		t.Errorf("post-clip norm %g", post)
	}
	// Below threshold: untouched.
	p.Grad = tensor.FromSlice([]float64{0.1, 0}, 2)
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad.Data[0] != 0.1 {
		t.Error("clip should not rescale small gradients")
	}
}

func TestAccuracyAndMeanLoss(t *testing.T) {
	cfg := tinyConfig()
	m := NewCNNLSTM(cfg)
	if Accuracy(m, nil) != 0 || MeanLoss(m, nil) != 0 {
		t.Error("empty data should yield 0")
	}
}

func BenchmarkForwardFast(b *testing.B) {
	cfg := FastModelConfig(8)
	m := NewCNNLSTM(cfg)
	rng := rand.New(rand.NewSource(14))
	x := tensor.Randn(rng, 1, cfg.InH, cfg.InW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

func BenchmarkTrainStepFast(b *testing.B) {
	cfg := FastModelConfig(8)
	m := NewCNNLSTM(cfg)
	rng := rand.New(rand.NewSource(15))
	x := tensor.Randn(rng, 1, cfg.InH, cfg.InW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		logits := m.Forward(x, true)
		_, g := CrossEntropy(logits, i%2)
		m.Backward(g)
	}
}
