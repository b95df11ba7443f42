package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/wemac"
)

// fixture is what every workload shares: a trained pipeline and the
// held-out users whose maps are the inputs. The whole population is
// generated from the seed; the program under test is handed the maps,
// never the seed.
type fixture struct {
	pipe *core.Pipeline
	held []*wemac.UserMaps
	// rec is one raw held-out recording, kept for the extraction rung of
	// the ladder; the rest of the raw signals are dropped after extraction
	// so they do not sit in live_heap_mb.
	rec *features.Recording

	generate, extract, train time.Duration
}

// pipelineConfig is the profile clear-serve ships (core.DefaultConfig:
// K=4, SubK=2, 123×8 maps, the fast model, default fine-tune) with only
// the offline training shortened: weight values do not change what a
// forward or a fine-tune costs. quick additionally shortens the fine-tune,
// which makes the numbers meaningless and the smoke test fast.
func pipelineConfig(quick bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Train.Epochs = 3
	cfg.Cluster = cluster.Options{Restarts: 4, MaxIter: cfg.Cluster.MaxIter}
	cfg.RefineRounds = 2
	if quick {
		cfg.FineTune.Epochs = 2
		cfg.FTAugment = 1
	}
	return cfg
}

func buildFixture(seed int64, quick bool) (*fixture, error) {
	cfg := pipelineConfig(quick)
	fx := &fixture{}

	t0 := time.Now()
	train := wemac.Generate(wemac.Config{
		ArchetypeSizes: []int{3, 3, 2, 2}, TrialsPerVolunteer: 6, TrialSec: 70, Seed: seed,
	})
	held := wemac.Generate(wemac.Config{
		ArchetypeSizes: []int{2, 2, 2, 2}, TrialsPerVolunteer: 20, TrialSec: 70, Seed: seed + 6, // a generator stream disjoint from the training one
	})
	fx.generate = time.Since(t0)

	t0 = time.Now()
	users, err := wemac.ExtractAll(train, cfg.Extractor)
	if err != nil {
		return nil, fmt.Errorf("extract training users: %w", err)
	}
	fx.held, err = wemac.ExtractAll(held, cfg.Extractor)
	if err != nil {
		return nil, fmt.Errorf("extract held-out users: %w", err)
	}
	fx.extract = time.Since(t0)
	fx.rec = held.Volunteers[0].Trials[0].Rec

	t0 = time.Now()
	fx.pipe, err = core.Train(users, cfg)
	if err != nil {
		return nil, fmt.Errorf("train pipeline: %w", err)
	}
	fx.train = time.Since(t0)
	return fx, nil
}

func (fx *fixture) total() time.Duration { return fx.generate + fx.extract + fx.train }

// refTable holds, for one device, what each cluster's model answers for
// every held-out map when called directly and un-batched:
// refs[cluster][user][trial]. Served distributions are compared against
// it, which checks batching, routing and the session→model mapping (not
// the kernels: both sides run the same ones). It is filled before any
// caller starts, so the check inside a slice is a table lookup and costs
// the measured process no forward passes.
type refTable [][][][]float64

func (fx *fixture) references(dev edge.Device) refTable {
	refs := make(refTable, len(fx.pipe.Models))
	// One goroutine per cluster: each deploys and calls its own model.
	var wg sync.WaitGroup
	for k, m := range fx.pipe.Models {
		wg.Add(1)
		go func(k int, m *nn.Model) {
			defer wg.Done()
			direct := edge.Deploy(m, dev).Model
			refs[k] = make([][][]float64, len(fx.held))
			for u, um := range fx.held {
				refs[k][u] = make([][]float64, len(um.Maps))
				for t, lm := range um.Maps {
					refs[k][u][t] = direct.Probabilities(fx.pipe.Apply(lm.Map))
				}
			}
		}(k, m)
	}
	wg.Wait()
	return refs
}
