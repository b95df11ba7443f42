// Quickstart: the complete CLEAR workflow on a small synthetic population.
//
//  1. Generate a WEMAC-like dataset (three physiological channels, fear /
//     non-fear stimuli) and extract 123×W feature maps.
//  2. Train the CLEAR pipeline: global clustering + one CNN-LSTM per
//     cluster ("cloud" stage).
//  3. A new user arrives: assign them to a cluster from unlabeled data
//     only (cold start), then fine-tune with a small labelled fraction
//     ("edge" stage).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/wemac"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the workflow and prints its progress to w.
func run(w io.Writer) error {
	// 1. Synthetic population: 18 known users + 1 newcomer.
	ds := wemac.Generate(wemac.Config{
		ArchetypeSizes:     []int{6, 5, 4, 4},
		TrialsPerVolunteer: 12,
		TrialSec:           60,
		Seed:               42,
	})
	ecfg := features.ExtractorConfig{WindowSec: 8, Windows: 6}
	users, err := wemac.ExtractAll(ds, ecfg)
	if err != nil {
		return err
	}
	newcomer := users[len(users)-1]
	known := users[:len(users)-1]
	fmt.Fprintf(w, "population: %d known users, %d feature maps each (%d×%d)\n",
		len(known), len(known[0].Maps), features.TotalFeatureCount, ecfg.Windows)

	// 2. Cloud stage: cluster + train per-cluster models.
	cfg := core.DefaultConfig()
	cfg.Extractor = ecfg
	cfg.Model = nn.FastModelConfig(ecfg.Windows)
	cfg.Seed = 42
	fmt.Fprintln(w, "training CLEAR pipeline (clustering + per-cluster CNN-LSTM)...")
	p, err := core.Train(known, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cluster sizes: %v\n", p.ClusterSizes())

	// 3. Edge stage: cold-start assignment from 10% unlabeled data.
	a := p.Assign(newcomer, 0.10)
	fmt.Fprintf(w, "\nnew user arrives (ground-truth archetype %d)\n", newcomer.Archetype)
	fmt.Fprintf(w, "cold-start assignment → cluster %d (distance scores %.3v)\n", a.Cluster, a.Scores)

	data := p.SamplesFor(newcomer)
	before, err := eval.EvaluateModel(p.ModelFor(a.Cluster), data)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "assigned cluster model, no fine-tuning: accuracy %.1f%%  F1 %.1f%%\n",
		before.Accuracy*100, before.F1*100)

	// Fine-tune with 20% labelled data, evaluate on the remaining 80%.
	ftTrain, ftTest := eval.SplitForFineTune(data, 0.20)
	ft, err := p.FineTune(a.Cluster, ftTrain)
	if err != nil {
		return err
	}
	after, err := eval.EvaluateModel(ft, ftTest)
	if err != nil {
		return err
	}
	baseOn80, err := eval.EvaluateModel(p.ModelFor(a.Cluster), ftTest)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fine-tuned with %d labelled maps: accuracy %.1f%% → %.1f%% on the held-out 80%%\n",
		len(ftTrain), baseOn80.Accuracy*100, after.Accuracy*100)
	return nil
}
