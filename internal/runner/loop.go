package runner

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Loop is the repository's parallel for-loop: it fans one body over an index
// range, for hot paths that do so every tick (a monitor sweep, a service
// window, a federation phase). The body is fixed at
// construction and the cursor and wait group live in the Loop, so a
// steady-state Run call allocates nothing.
//
// Workers claim indices from an atomic cursor, so execution order is
// scheduling-dependent. Determinism is therefore the caller's contract — the
// body must only write state owned by its index (stage results per index and
// apply them in index order afterwards, the same discipline as Run's
// index-ordered collection).
//
// The caller is worker 0; the others are helpers of one process-wide pool of
// at most GOMAXPROCS−1 goroutines that every Loop shares. A helper parks
// between Runs holding no Loop, so a dropped Loop — and whatever its body
// reaches — is garbage. Run hands itself to the helpers parked at that moment
// and, while the pool is below its cap, starts more; it never waits for one,
// so a Run nested in another Run's body gets fewer helpers, not a deadlock,
// and a steady state of Runs starts no goroutine. Run must not be called
// concurrently with itself.
type Loop struct {
	body func(int)
	next atomic.Int64
	n    int64
	wg   sync.WaitGroup
	pan  atomic.Pointer[loopPanic]
}

// pool is the helpers every Loop shares. A parked helper waits on its own
// wake channel, which is in idle while the helper holds no Loop; size counts
// the helpers started, parked or not, which never exit.
var pool struct {
	sync.Mutex
	idle []chan *Loop
	size int
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
	return &Loop{body: body}
}

// Run executes body(0) … body(n-1) on up to workers goroutines (the caller
// counts as one, and the pool caps the rest at GOMAXPROCS−1) and returns when
// all calls finished. workers ≤ 1 (or n ≤ 1) runs inline on the calling
// goroutine, in index order. A body panic is re-raised on the calling
// goroutine as a *PanicError attributing the index, after the remaining
// workers drain.
func (l *Loop) Run(workers, n int) {
	if n <= 0 {
		return
	}
	l.n = int64(n)
	l.next.Store(0)
	for range min(workers, n) - 1 {
		l.wg.Add(1)
		if !l.handOff() {
			l.wg.Done()
			break
		}
	}
	l.stride()
	l.wg.Wait()
	if p := l.pan.Swap(nil); p != nil {
		panic(&PanicError{Unit: "loop-body", Index: p.index, Value: p.value, Stack: p.stack})
	}
}

// handOff gives l to a parked helper, or to a new one while the pool is below
// its cap, and reports whether one took it. It never blocks: a wake channel
// holds one Loop, and only a parked helper's is in idle.
func (l *Loop) handOff() bool {
	pool.Lock()
	var wake chan *Loop
	if k := len(pool.idle); k > 0 {
		wake, pool.idle = pool.idle[k-1], pool.idle[:k-1]
	} else if pool.size < runtime.GOMAXPROCS(0)-1 {
		pool.size++
		wake = make(chan *Loop, 1)
		go help(wake)
	}
	pool.Unlock()
	if wake == nil {
		return false
	}
	wake <- l
	return true
}

// help is a pool goroutine: it strides each Loop it is woken with, and parks
// again — back in idle before it signals done, so that a caller whose Run
// returned finds every helper of it parked. Done is its last touch of l.
func help(wake chan *Loop) {
	for l := range wake {
		l.stride()
		pool.Lock()
		pool.idle = append(pool.idle, wake)
		pool.Unlock()
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
