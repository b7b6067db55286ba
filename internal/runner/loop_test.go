package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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
// per epoch. Once the pool holds the helpers a Run asks for, the per-call
// allocation count is zero.
func TestLoopRunDoesNotAllocate(t *testing.T) {
	var sink atomic.Int64
	l := NewLoop(func(i int) { sink.Add(int64(i)) })
	for k := 0; k < 10; k++ { // fill the pool
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

// The pool is process-wide and capped: Runs at GOMAXPROCS 4, however wide
// they ask and however many Loops there are, leave at most three more
// goroutines in the process, and a second batch of the same Runs starts
// none — a helper is parked again before the Run it served returns.
func TestLoopPoolCapsHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var sink atomic.Int64
	loops := make([]*Loop, 3)
	for i := range loops {
		loops[i] = NewLoop(func(j int) { sink.Add(int64(j)) })
	}
	batch := func() {
		for k := 0; k < 20; k++ {
			for i, l := range loops {
				l.Run(2+i*3, 64) // 2, 5 and 8 workers
			}
		}
	}
	before := runtime.NumGoroutine()
	batch()
	after := runtime.NumGoroutine()
	if after > before+3 {
		t.Errorf("%d goroutines after Runs at GOMAXPROCS 4, %d before: the pool exceeds 3 helpers", after, before)
	}
	batch()
	if got := runtime.NumGoroutine(); got != after {
		t.Errorf("a second batch of Runs left %d goroutines, the first %d", got, after)
	}
}

// A parked helper holds no Loop: a Loop dropped after parallel Runs is
// garbage, and what its body reaches with it. The sentinel is 32 bytes so
// that it has a block of its own and its finalizer can run.
func TestLoopPinsNothing(t *testing.T) {
	type sentinel struct {
		calls atomic.Int64
		_     [3]int
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	collected := make(chan struct{}, 1)
	func() {
		s := new(sentinel)
		runtime.SetFinalizer(s, func(*sentinel) { collected <- struct{}{} })
		l := NewLoop(func(int) { s.calls.Add(1) })
		for k := 0; k < 3; k++ {
			l.Run(4, 64)
		}
		if s.calls.Load() != 3*64 {
			t.Fatalf("%d body calls in three Runs of 64", s.calls.Load())
		}
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(100 * time.Millisecond):
			if i == 20 {
				t.Fatal("the Loop's body target was not collected after repeated GCs")
			}
		}
	}
}

// A Run nested in another Run's body never waits for a helper, so it
// completes whether the pool is empty (GOMAXPROCS 1), smaller than the
// outer Run's width or large enough for both.
func TestLoopNestedRunCompletes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const outer, inner = 8, 100
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var sums [outer]atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			NewLoop(func(i int) {
				NewLoop(func(j int) { sums[i].Add(int64(j)) }).Run(4, inner)
			}).Run(4, outer)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("GOMAXPROCS %d: nested Runs did not complete in 10 s", procs)
		}
		for i := range sums {
			if got := sums[i].Load(); got != inner*(inner-1)/2 {
				t.Fatalf("GOMAXPROCS %d: inner Run %d summed %d", procs, i, got)
			}
		}
	}
}
