package core

import (
	"sync"
	"testing"

	"repro/internal/nn"
)

// TestPipelineConcurrentReaders hammers every read-only Pipeline entry
// point from 8 goroutines at once — the contract internal/serve depends
// on (run with -race; see the concurrency note on Pipeline). Model
// inference is included via per-goroutine clones, which is the documented
// safe pattern: the shared *nn.Model values themselves carry forward
// state and need external serialisation.
func TestPipelineConcurrentReaders(t *testing.T) {
	users := tinyUsers(t)
	holdout := users[len(users)-2:]
	p, err := Train(users[:len(users)-2], tinyCLEARConfig())
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := holdout[g%len(holdout)]
			clones := make([]*nn.Model, len(p.Models))
			for k := range p.Models {
				clones[k] = p.ModelFor(k).Clone()
			}
			for i := 0; i < iters; i++ {
				a := p.Assign(u, 0.1)
				if a.Cluster < 0 || a.Cluster >= p.Cfg.K {
					t.Errorf("goroutine %d: cluster %d out of range", g, a.Cluster)
					return
				}
				if b := p.AssignMaps(u.AllMaps()[:1], 0.1); len(b.Scores) != len(a.Scores) {
					t.Errorf("goroutine %d: AssignMaps scores %d ≠ %d", g, len(b.Scores), len(a.Scores))
					return
				}
				x := p.Apply(u.Maps[i%len(u.Maps)].Map)
				if probs := clones[a.Cluster].Probabilities(x); len(probs) != p.Cfg.Model.Classes {
					t.Errorf("goroutine %d: %d probs", g, len(probs))
					return
				}
				if samples := p.SamplesFor(u); len(samples) != len(u.Maps) {
					t.Errorf("goroutine %d: %d samples", g, len(samples))
					return
				}
				p.ClusterSizes()
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentAssignMatchesSequential: results under contention are
// bitwise identical to a quiet sequential run — concurrency must not
// change the math, only interleave it.
func TestConcurrentAssignMatchesSequential(t *testing.T) {
	users := tinyUsers(t)
	holdout := users[len(users)-1]
	p, err := Train(users[:len(users)-1], tinyCLEARConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := p.Assign(holdout, 0.1)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := p.Assign(holdout, 0.1)
				if got.Cluster != want.Cluster {
					t.Errorf("cluster %d ≠ sequential %d", got.Cluster, want.Cluster)
					return
				}
				for k := range want.Scores {
					if got.Scores[k] != want.Scores[k] {
						t.Errorf("score[%d] %v ≠ sequential %v", k, got.Scores[k], want.Scores[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
