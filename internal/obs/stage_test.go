package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestStageTimerResidualReconciles(t *testing.T) {
	st := NewStageTimer()
	st.Add(StageDecode, 1*time.Millisecond)
	st.Add(StageForward, 2*time.Millisecond)
	time.Sleep(10 * time.Millisecond) // wall time exceeds measured stages → residual > 0
	total, stages := st.Finish()
	if total <= 0 {
		t.Fatalf("total = %v, want > 0", total)
	}
	var sum time.Duration
	seen := map[StageKind]time.Duration{}
	for _, sd := range stages {
		sum += sd.Dur
		seen[sd.Kind] = sd.Dur
	}
	// The residual "other" stage makes the breakdown tile the total
	// exactly.
	if sum != total {
		t.Fatalf("stage sum %v != total %v", sum, total)
	}
	if seen[StageDecode] != 1*time.Millisecond || seen[StageForward] != 2*time.Millisecond {
		t.Fatalf("explicit stages wrong: %v", seen)
	}
	if seen[StageOther] <= 0 {
		t.Fatalf("missing residual other stage: %v", seen)
	}
}

func TestStageTimerFinishIdempotent(t *testing.T) {
	st := NewStageTimer()
	st.Add(StageSanitize, time.Millisecond)
	total1, s1 := st.Finish()
	time.Sleep(2 * time.Millisecond)
	st.Add(StageDecode, time.Hour) // after Finish: dropped
	total2, s2 := st.Finish()
	if total1 != total2 || len(s1) != len(s2) {
		t.Fatalf("Finish not idempotent: (%v,%d) vs (%v,%d)", total1, len(s1), total2, len(s2))
	}
}

func TestStageTimerNilSafe(t *testing.T) {
	var st *StageTimer
	st.Add(StageDecode, time.Second)
	st.Time(StageEncode)()
	st.SetCluster("3")
	if c := st.Cluster(); c != "none" {
		t.Fatalf("nil Cluster() = %q, want none", c)
	}
	if total, stages := st.Finish(); total != 0 || stages != nil {
		t.Fatalf("nil Finish() = (%v, %v)", total, stages)
	}
	if _, got := st.FlushTo(nil); got != nil {
		t.Fatalf("nil FlushTo returned stages")
	}
	if StageTimerOf(context.Background()) != nil {
		t.Fatal("StageTimerOf on bare ctx should be nil")
	}
}

func TestStageTimerContextCarriage(t *testing.T) {
	st := NewStageTimer()
	ctx := WithStageTimer(context.Background(), st)
	if got := StageTimerOf(ctx); got != st {
		t.Fatal("context round-trip lost the timer")
	}
}

func TestStageTimerFlushTo(t *testing.T) {
	reg := NewRegistry()
	vec := reg.HistogramVec("stage_test", ExpBuckets(1, 2, 20), []string{"stage", "cluster"})
	st := NewStageTimer()
	st.SetCluster("2")
	st.Add(StageForward, 3*time.Millisecond)
	time.Sleep(5 * time.Millisecond) // leave room for a residual other stage
	_, stages := st.FlushTo(vec)
	if len(stages) < 2 { // forward + other
		t.Fatalf("stages = %v", stages)
	}
	h := vec.With("forward", "2")
	if h.Count() != 1 {
		t.Fatalf("forward{cluster=2} count = %d, want 1", h.Count())
	}
	if got := h.Sum(); got < 2900 || got > 3100 {
		t.Fatalf("forward sum = %vµs, want ≈3000", got)
	}
	if vec.With("other", "2").Count() != 1 {
		t.Fatal("residual other not flushed")
	}
}

func TestStageTimerConcurrentAdd(t *testing.T) {
	st := NewStageTimer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k StageKind) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				st.Add(k, time.Microsecond)
			}
		}(StageKind(i % int(StageOther))) // only explicit stages; Other is residual-owned
	}
	wg.Wait()
	_, stages := st.Finish()
	var sum time.Duration
	for _, sd := range stages {
		if sd.Kind != StageOther {
			sum += sd.Dur
		}
	}
	if sum != 800*time.Microsecond {
		t.Fatalf("concurrent adds lost time: %v, want 800µs", sum)
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for k := StageKind(0); k < NumStages; k++ {
		name := k.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("stage %d has name %q; want a distinct label", k, name)
		}
		seen[name] = true
	}
	if StageKind(99).String() != "unknown" {
		t.Fatal("out-of-range StageKind should stringify to unknown")
	}
}
