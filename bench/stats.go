package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples, and whether at least ten samples lie beyond it — the condition
// under which a tail percentile is worth reporting at all.
func percentile(sorted []float64, q float64) (v float64, enough bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= 10
}

// median returns the middle value (mean of the middle two for an even
// count); it does not reorder vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procSnap is the process-wide accounting read at phase boundaries: CPU
// from getrusage, allocation and GC counters from the runtime, and the
// exact matmul-family operation counts the tensor package keeps.
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause time.Duration
	calls   int64
	macs    int64
}

// cpuTime is the user+sys CPU the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	calls, macs := tensor.OpStats()
	return procSnap{
		at:      time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
		calls:   calls,
		macs:    macs,
	}
}

// liveHeapMB forces two collections (the second reclaims what the first
// one's finalisers released) and returns what is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// fsType names the filesystem holding dir; fsync cost differs by an order
// of magnitude between tmpfs and a journalled disk, so store numbers are
// only comparable between runs that print the same value.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch int64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", int64(st.Type))
}
