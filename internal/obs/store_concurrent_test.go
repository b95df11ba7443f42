package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTraceStoreConcurrentFIFOCapacity hammers Add from many goroutines
// with errored traces (which bypass the OK token bucket) and checks the
// FIFO capacity bound and admission accounting stay consistent under
// contention. Run with -race.
func TestTraceStoreConcurrentFIFOCapacity(t *testing.T) {
	const capacity, writers, perWriter = 32, 8, 50
	st := NewTraceStore(capacity, 0)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr := NewTrace(fmt.Sprintf("op-%d", i))
				tr.MarkError()
				if !st.Add(tr) {
					t.Error("errored trace shed")
				}
			}
		}()
	}
	wg.Wait()

	if st.Len() != capacity {
		t.Fatalf("held %d traces, want capacity %d", st.Len(), capacity)
	}
	if len(st.order) != len(st.byID) {
		t.Fatalf("accounting broken: FIFO order holds %d ids, index %d", len(st.order), len(st.byID))
	}
}

// TestTraceStoreErrorsSurviveOKFlood floods the store with OK traces from
// concurrent writers while a handful of errored traces land; every errored
// trace must remain resolvable by id — the tail-sampling guarantee the
// breach-diagnosis path depends on.
func TestTraceStoreErrorsSurviveOKFlood(t *testing.T) {
	const errTraces = 16
	st := NewTraceStore(128, 1) // burst 8: the flood is mostly shed

	var wg sync.WaitGroup
	var shed atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if !st.Add(NewTrace("ok")) {
					shed.Add(1)
				}
			}
		}()
	}
	ids := make([]string, errTraces)
	var emu sync.Mutex
	for e := 0; e < errTraces; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			tr := NewTrace("boom")
			tr.MarkError()
			id := tr.ID().Short()
			if !st.Add(tr) {
				t.Errorf("errored trace %d shed during flood", e)
			}
			emu.Lock()
			ids[e] = id
			emu.Unlock()
		}(e)
	}
	wg.Wait()

	for e, id := range ids {
		snap, ok := st.Get(id)
		if !ok {
			t.Fatalf("errored trace %d (%s) evicted by OK flood", e, id)
		}
		if !snap.Error {
			t.Fatalf("trace %s lost its error mark", id)
		}
	}
	if shed.Load() == 0 {
		t.Fatal("flood was not shed at all")
	}
}
