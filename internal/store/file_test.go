package store_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// TestFileFencedPutSameIDConcurrent races fenced puts to one id: the
// compare-and-write must stay atomic, so the record ends at the highest
// seq any writer offered and every loser is told ErrFenced.
func TestFileFencedPutSameIDConcurrent(t *testing.T) {
	const writers, puts = 8, 10
	s, err := store.NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				seq := uint64(i*writers + g + 1) // distinct, increasing per writer
				err := s.PutSessionFenced(ctx, "s", store.Fence{Epoch: 1, Seq: seq}, []byte(strconv.FormatUint(seq, 10)))
				if err != nil && !errors.Is(err, store.ErrFenced) {
					t.Errorf("writer %d seq %d: %v", g, seq, err)
				}
			}
		}(g)
	}
	wg.Wait()
	got, err := s.GetSession(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.Itoa(writers * puts); string(got) != want {
		t.Errorf("stored seq %s, want the highest offered, %s", got, want)
	}
}

// BenchmarkFilePutSessionFenced measures fenced-put throughput with 4
// writers, each on its own id, persisting 64 KiB records. Writers on
// distinct ids share no record, so they should not queue behind one
// another's fsync.
func BenchmarkFilePutSessionFenced(b *testing.B) {
	const writers = 4
	s, err := store.NewFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("sess-%d", g)
			for i := g; i < b.N; i += writers {
				if err := s.PutSessionFenced(ctx, id, store.Fence{Epoch: 1, Seq: uint64(i + 1)}, data); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "puts/s")
}
