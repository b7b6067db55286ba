package runner

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Loop is a reusable parallel for-loop for hot paths that fan the same body
// over an index range every tick. Unlike Run it builds no per-call units,
// closures, or result slices: the body is fixed at construction, worker
// goroutines are spawned once and parked between calls, and the atomic
// cursor and wait group live in the Loop — so a steady-state Run call
// allocates nothing.
//
// The body observes the same striding order as Run's pool: workers claim
// indices from an atomic cursor, so execution order is scheduling-dependent.
// Determinism is therefore the caller's contract — the body must only write
// state owned by its index (stage results per index and apply them in index
// order afterwards, the same discipline as Run's index-ordered collection).
//
// A Loop parks its helper goroutines for its own lifetime; create one per
// long-lived consumer (a federation owns one), not per call. Run must not
// be called concurrently with itself.
type Loop struct {
	body    func(int)
	next    atomic.Int64
	n       int64
	wg      sync.WaitGroup
	pan     atomic.Pointer[loopPanic]
	wake    chan struct{}
	spawned int // parked helper goroutines
}

// loopPanic carries the first body panic to the calling goroutine.
type loopPanic struct {
	index int
	value any
	stack []byte
}

// NewLoop fixes the loop body. The body must be safe for concurrent calls
// with distinct indices.
func NewLoop(body func(int)) *Loop {
	return &Loop{body: body, wake: make(chan struct{})}
}

// Run executes body(0) … body(n-1) on up to workers goroutines (the caller
// counts as one) and returns when all calls finished. workers ≤ 1 (or
// n ≤ 1) runs inline on the calling goroutine. A body panic is re-raised on
// the calling goroutine as a *PanicError attributing the index, after the
// remaining workers drain.
func (l *Loop) Run(workers, n int) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	l.n = int64(n)
	l.next.Store(0)
	helpers := max(workers-1, 0)
	for l.spawned < helpers {
		go l.idleWorker()
		l.spawned++
	}
	l.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		l.wake <- struct{}{}
	}
	l.stride()
	l.wg.Wait()
	if p := l.pan.Swap(nil); p != nil {
		panic(&PanicError{Unit: "loop-body", Index: p.index, Value: p.value, Stack: p.stack})
	}
}

// idleWorker parks between Run calls; each wake token covers one stride.
func (l *Loop) idleWorker() {
	for range l.wake {
		l.stride()
		l.wg.Done()
	}
}

// stride claims indices until the range (or the loop, after a panic) is
// exhausted.
func (l *Loop) stride() {
	for l.pan.Load() == nil {
		i := l.next.Add(1) - 1
		if i >= l.n {
			return
		}
		l.call(int(i))
	}
}

// call isolates the recover so the striding loop itself stays defer-free.
func (l *Loop) call(i int) {
	defer func() {
		if r := recover(); r != nil {
			l.pan.CompareAndSwap(nil, &loopPanic{index: i, value: r, stack: debug.Stack()})
		}
	}()
	l.body(i)
}
