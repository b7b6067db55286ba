package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index must be visited exactly once per Run, at any worker count,
// across reuses of the same Loop.
func TestLoopVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	var visits [n]atomic.Int32
	l := NewLoop(func(i int) { visits[i].Add(1) })
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0) + 3} {
		for i := range visits {
			visits[i].Store(0)
		}
		l.Run(workers, n)
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
	// Shrinking n on a reused loop must not touch stale indices.
	for i := range visits {
		visits[i].Store(0)
	}
	l.Run(4, 10)
	for i := 10; i < n; i++ {
		if visits[i].Load() != 0 {
			t.Fatalf("index %d visited after n shrank to 10", i)
		}
	}
}

// The steady-state Run call must not allocate: a federation issues several
// per epoch. Worker goroutines are recycled by the runtime, so after a warmup
// the per-call allocation count settles at zero.
func TestLoopRunDoesNotAllocate(t *testing.T) {
	var sink atomic.Int64
	l := NewLoop(func(i int) { sink.Add(int64(i)) })
	for k := 0; k < 10; k++ { // warm the goroutine free list
		l.Run(4, 64)
	}
	if allocs := testing.AllocsPerRun(20, func() { l.Run(4, 64) }); allocs > 0 {
		t.Errorf("Loop.Run allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { l.Run(1, 64) }); allocs != 0 {
		t.Errorf("serial Loop.Run allocates %.1f objects per call, want 0", allocs)
	}
}

// A body panic surfaces on the caller as an attributed PanicError, and the
// loop remains usable afterwards.
func TestLoopPanicPropagates(t *testing.T) {
	l := NewLoop(func(i int) {
		if i == 13 {
			panic("boom")
		}
	})
	for _, workers := range []int{4, 1} {
		func() {
			defer func() {
				r := recover()
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T (%v), want *PanicError", workers, r, r)
				}
				if pe.Index != 13 || pe.Value != "boom" {
					t.Fatalf("workers=%d: panic attributed to index %d value %v", workers, pe.Index, pe.Value)
				}
			}()
			l.Run(workers, 64)
		}()
	}
	var count atomic.Int32
	l2 := NewLoop(func(int) { count.Add(1) })
	l2.Run(3, 30)
	if count.Load() != 30 {
		t.Fatalf("post-panic reuse ran %d bodies, want 30", count.Load())
	}
}
