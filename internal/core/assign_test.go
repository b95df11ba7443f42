package core

import (
	"testing"

	"repro/internal/wemac"
)

// TestAssignUsesOnlyEarlyMaps: cold-start assignment with a small fraction
// must not look at the user's later maps (the whole point of the cold
// start: the system decides before most data exists).
func TestAssignUsesOnlyEarlyMaps(t *testing.T) {
	users := tinyUsers(t)
	holdout := users[len(users)-1]
	p, err := Train(users[:len(users)-1], tinyCLEARConfig())
	if err != nil {
		t.Fatal(err)
	}
	frac := 0.26 // uses ⌈0.26·6⌉ ≈ 2 of the 6 maps
	before := p.Assign(holdout, frac)

	// Corrupt every map after the first two; the assignment must not move.
	mutated := &wemac.UserMaps{ID: holdout.ID, Archetype: holdout.Archetype}
	mutated.Maps = append(mutated.Maps, holdout.Maps[:2]...)
	for _, lm := range holdout.Maps[2:] {
		c := lm.Map.Clone()
		for i := range c.Data {
			c.Data[i] = 1e6
		}
		mutated.Maps = append(mutated.Maps, wemac.LabeledMap{Map: c, Label: lm.Label})
	}
	after := p.Assign(mutated, frac)
	if before.Cluster != after.Cluster {
		t.Fatalf("assignment depended on late maps: %d vs %d", before.Cluster, after.Cluster)
	}
	for k := range before.Scores {
		if before.Scores[k] != after.Scores[k] {
			t.Fatalf("assignment scores depended on late maps")
		}
	}
}

func TestWithDefaultsSizesModel(t *testing.T) {
	var cfg Config
	d := cfg.WithDefaults()
	if d.K != 4 || d.SubK != 2 {
		t.Errorf("defaults K=%d SubK=%d", d.K, d.SubK)
	}
	if d.Model.InH != 123 || d.Model.InW != d.Extractor.Windows {
		t.Errorf("model input %dx%d not sized to extractor", d.Model.InH, d.Model.InW)
	}
	// Original untouched (value semantics).
	if cfg.K != 0 {
		t.Error("WithDefaults mutated the receiver")
	}
}

func TestAssignmentScoresConsistent(t *testing.T) {
	users := tinyUsers(t)
	p, err := Train(users[:len(users)-1], tinyCLEARConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := p.Assign(users[len(users)-1], 1.0)
	// The selected cluster's score is the strict minimum or ties with it.
	min := a.Scores[0]
	for _, s := range a.Scores {
		if s < min {
			min = s
		}
	}
	if a.Scores[a.Cluster] != min {
		t.Errorf("selected cluster score %g is not the minimum %g", a.Scores[a.Cluster], min)
	}
	if a.FracUsed != 1.0 {
		t.Errorf("FracUsed %g", a.FracUsed)
	}
}

func TestAssignmentMargin(t *testing.T) {
	a := Assignment{Cluster: 1, Scores: []float64{4, 2, 6, 8}}
	// best=2, runner-up=4 → margin (4−2)/2 = 1.
	if m := a.Margin(); m != 1 {
		t.Errorf("margin %g, want 1", m)
	}
	tie := Assignment{Cluster: 0, Scores: []float64{3, 3}}
	if m := tie.Margin(); m != 0 {
		t.Errorf("tie margin %g, want 0", m)
	}
	single := Assignment{Cluster: 0, Scores: []float64{3}}
	if single.Margin() != 0 {
		t.Error("single-cluster margin should be 0")
	}
}
