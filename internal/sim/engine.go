package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Event is a callback executed at its scheduled virtual time.
type Event func(now Time)

// ArgEvent is the closure-free form of Event a Batch runs: the callback is a
// function or a method value bound once, and what would have been captured
// travels as arg. Adding an entry allocates nothing.
type ArgEvent func(now Time, arg int64)

// Handle identifies a scheduled event so Engine.Cancel can cancel it. It is a
// plain value: the zero Handle identifies nothing, and so does the handle of
// an event that has fired or whose cancellation has been collected, even
// after its slot has a new tenant.
type Handle struct {
	slot int32
	gen  uint32
}

// entry is one queue element. The ordering key lives in the array, so a
// comparison never leaves the heap's own cache lines.
type entry struct {
	at   Time
	seq  uint64 // tiebreaker: FIFO among events at the same time
	slot int32  // index into Engine.events; a lane entry's arg
	lane uint8  // 0 for a slab event, else the Lane's index in lanes + 1
}

func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// event is one slab record: what to run when the entry naming it is popped.
// It is 24 bytes, which is why period does double duty.
type event struct {
	fn Event
	// period is the re-arm interval of a periodic event, 0 for a one-shot;
	// a free slot keeps the free-list link here.
	period    int64
	gen       uint32 // bumped on release, so stale handles match nothing
	cancelled bool
}

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same timestamp fire in scheduling order, making runs fully
// deterministic. Engine is not safe for concurrent use; all simulated
// components run inside event callbacks on one goroutine.
//
// Every pending event is an entry ordered by (at, seq); seq is unique, so
// dispatch order does not depend on where an entry waits. The callbacks of
// At and Every events live apart, in a slab whose slots are recycled through
// a free list: in steady state scheduling and dispatching allocate nothing.
// A Lane entry has no slab record: it carries its owner's arg, and the
// owner's record says whether it is still due. Cancellation is lazy either
// way — Cancel marks the slab record, a lane's owner stops answering live —
// and the entry is dropped when it surfaces as the earliest of all, because
// removing from the middle would need every move of an entry written back.
//
// Entries wait in one of three places, and dispatch takes whichever head is
// first in (at, seq) order:
//   - the completion calendar: an event due in one of the calMinutes−1
//     minutes after the open minute is appended to that minute's bucket, a
//     list of chunks. When the engine reaches a bucket's minute it sorts the
//     bucket by millisecond into the open run, from which events dispatch
//     by an index bump;
//   - an implicit 4-ary min-heap, for the rest: events in the open minute
//     itself and events calMinutes or more minutes out;
//   - batches: bulk one-shots that share a callback and are never cancelled
//     (see Batch).
type Engine struct {
	now     Time
	queue   []entry
	events  Slab[event]
	lanes   []*Lane
	batches []*Batch
	free    int32 // head of the free-slot list, -1 when empty
	seq     uint64
	stopped bool
	stepLim uint64 // safety valve against runaway event loops; 0 = unlimited
	steps   uint64

	// The calendar. open is the open minute and openAt its first
	// millisecond; run[runHead:] are its pending calendar entries in (at,
	// seq) order, and runSpare is the sort's other buffer. Bucket
	// m % calMinutes holds minute m's entries for open < m < open+calMinutes;
	// calLen entries wait in buckets, the earliest in minute calMin.
	open      int64
	openAt    Time
	run       []calEntry
	runHead   int
	runSpare  []calEntry
	buckets   [calMinutes]bucket
	calLen    int
	calMin    int64
	chunks    []*calChunk
	chunkNext []int32 // a chunk's successor in its bucket or in the free list
	freeChunk int32   // head of the free-chunk list, -1 when empty

	// touching are the lanes' touch hooks. touchBuf backs the lists a call
	// hands a lane's hook, touchArgs the list a call hands a batch's. With
	// them an Engine is 1,984 bytes, which with the allocator's 8-byte
	// header still fits the 2,048-byte size class.
	touching  []laneTouch
	touchBuf  [2 * touchBlock]int32
	touchArgs [touchBlock]int64
}

// laneTouch is a lane's touch hook and the lane byte of its entries.
type laneTouch struct {
	id    uint8
	touch func(ahead, near []int32)
}

// calMinutes is the calendar's reach in minutes. DefaultDurations caps a job
// at 100 minutes, so every full-speed completion is filed in the calendar;
// a job slowed by DVFS may outrun it and wait in the heap.
const calMinutes = 128

// touchBlock is the length of the blocks in which the engine hands a lane's
// or a batch's touch hook the args coming next (see Lane): once per block, so
// the owner's loads of a block's records are independent of each other and
// their cache misses are in flight at the same time.
const touchBlock = 8

// calEntry is a calendar entry; its minute is its bucket's, so it keeps
// only its offset into that minute (below 60,000 < 2¹⁶). 16 bytes.
type calEntry struct {
	seq  uint64
	slot int32
	off  uint16
	lane uint8
}

// calChunk is one link of a bucket's list. A bucket grows by chunks taken
// from one shared free list, so the calendar holds what is pending, not
// every bucket's busiest minute.
type calChunk [chunkLen]calEntry

const chunkLen = 64

// bucket is one minute's entries in scheduling (seq) order: n of them in
// chunks head → … → tail, only the tail partly filled.
type bucket struct {
	head, tail int32
	n          int32
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{free: -1, freeChunk: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetStepLimit bounds the total number of events the engine will execute;
// exceeding it makes Run return an error. Zero (the default) means unlimited.
func (e *Engine) SetStepLimit(n uint64) { e.stepLim = n }

// ErrStepLimit is returned by Run/RunUntil when the configured step limit is
// exceeded, which almost always indicates an event loop rescheduling itself
// at the current time.
var ErrStepLimit = errors.New("sim: step limit exceeded")

// schedule queues ev to fire at t and returns its handle. Scheduling in the
// past (before Now) panics: it would silently reorder causality.
func (e *Engine) schedule(t Time, name string, ev event) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, e.now))
	}
	slot := e.free
	var rec *event
	if slot >= 0 {
		rec = e.events.At(slot)
		e.free = int32(rec.period)
		ev.gen = rec.gen
	} else {
		slot = e.events.Add()
		rec = e.events.At(slot)
		ev.gen = 1
	}
	*rec = ev
	e.enqueue(entry{at: t, seq: e.seq, slot: slot})
	e.seq++
	return Handle{slot: slot, gen: ev.gen}
}

// release returns a slot to the free list. Dropping the callbacks lets the
// collector have whatever a closure captured.
func (e *Engine) release(slot int32) {
	ev := e.events.At(slot)
	gen := ev.gen + 1
	if gen == 0 {
		gen = 1 // the zero Handle must stay invalid
	}
	*ev = event{gen: gen, period: int64(e.free)}
	e.free = slot
}

// At schedules fn to run at virtual time t. Scheduling in the past (before
// Now) panics.
func (e *Engine) At(t Time, name string, fn Event) Handle {
	return e.schedule(t, name, event{fn: fn})
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, name string, fn Event) Handle {
	return e.At(e.now.Add(d), name, fn)
}

// Every schedules fn to run first at time start and then every interval
// thereafter, until the returned handle is cancelled. interval must be
// positive.
func (e *Engine) Every(start Time, interval Duration, name string, fn Event) Handle {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v for periodic event %q", interval, name))
	}
	return e.schedule(start, name, event{fn: fn, period: int64(interval)})
}

// Cancel stops h's event from firing; for a periodic event it stops all
// future firings. The zero Handle, an event that already fired and an event
// already cancelled are all no-ops.
func (e *Engine) Cancel(h Handle) {
	if int(h.slot) < e.events.Len() {
		if ev := e.events.At(h.slot); ev.gen == h.gen {
			ev.cancelled = true
		}
	}
}

// enqueue files x: in its minute's bucket when that minute is one of the
// calMinutes−1 after the open one, in the heap otherwise.
func (e *Engine) enqueue(x entry) {
	m := int64(x.at) / int64(Minute)
	d := m - e.open
	if d >= calMinutes {
		// Once the clock has left the open minute, whose run is then
		// drained, the ring can reach from now's minute instead, kept below
		// every filed one. After an idle span this is what refills it.
		o := e.now.Minute()
		if e.calLen > 0 {
			o = min(o, e.calMin-1)
		}
		if o > e.open {
			e.open, e.openAt = o, Time(o*int64(Minute))
			d = m - o
		}
	}
	if d <= 0 || d >= calMinutes {
		e.push(x)
		return
	}
	bk := &e.buckets[m%calMinutes]
	i := bk.n % chunkLen
	if i == 0 {
		c := e.newChunk()
		if bk.n == 0 {
			bk.head = c
		} else {
			e.chunkNext[bk.tail] = c
		}
		bk.tail = c
	}
	e.chunks[bk.tail][i] = calEntry{seq: x.seq, slot: x.slot, off: uint16(x.at.Sub(Time(m * int64(Minute)))), lane: x.lane}
	bk.n++
	if e.calLen == 0 || m < e.calMin {
		e.calMin = m
	}
	e.calLen++
}

// newChunk takes a chunk from the free list, or makes one.
func (e *Engine) newChunk() int32 {
	if c := e.freeChunk; c >= 0 {
		e.freeChunk = e.chunkNext[c]
		return c
	}
	e.chunks = append(e.chunks, new(calChunk))
	e.chunkNext = append(e.chunkNext, -1)
	return int32(len(e.chunks) - 1)
}

// openMinute opens minute calMin, whose bucket is the earliest filed: two
// stable 8-bit LSD passes on the offset sort the bucket into run, in (at,
// seq) order since it was filed in seq order, and its chunks go back to the
// free list. The open run must be drained.
func (e *Engine) openMinute() {
	m := e.calMin
	bk := &e.buckets[m%calMinutes]
	n := int(bk.n)
	if cap(e.run) < n {
		e.run = make([]calEntry, n+n/8)
		e.runSpare = make([]calEntry, n+n/8)
	}
	var lo, hi [256]int32
	for c, left := bk.head, n; left > 0; c = e.chunkNext[c] {
		ch := e.chunks[c][:min(left, chunkLen)]
		for _, x := range ch {
			lo[byte(x.off)]++
			hi[x.off>>8]++
		}
		left -= len(ch)
	}
	sumLo, sumHi := int32(0), int32(0)
	for d := range lo {
		lo[d], sumLo = sumLo, sumLo+lo[d]
		hi[d], sumHi = sumHi, sumHi+hi[d]
	}
	spare, run := e.runSpare[:n], e.run[:n]
	for c, left := bk.head, n; left > 0; c = e.chunkNext[c] {
		ch := e.chunks[c][:min(left, chunkLen)]
		for _, x := range ch {
			spare[lo[byte(x.off)]] = x
			lo[byte(x.off)]++
		}
		left -= len(ch)
	}
	for _, x := range spare {
		run[hi[x.off>>8]] = x
		hi[x.off>>8]++
	}
	e.chunkNext[bk.tail], e.freeChunk = e.freeChunk, bk.head
	*bk = bucket{}
	e.open, e.openAt = m, Time(m*int64(Minute))
	e.run, e.runHead = run, 0
	if len(e.touching) > 0 {
		e.touchRun()
	}
	if e.calLen -= n; e.calLen > 0 {
		// Every filed minute lies in (m, m+calMinutes): the scan stops
		// within the ring.
		for m++; e.buckets[m%calMinutes].n == 0; m++ {
		}
		e.calMin = m
	}
}

// advanceRun moves the open run's head past its entry, dispatched or
// dropped. When the head enters a block, the touching lanes get its args.
func (e *Engine) advanceRun() {
	e.runHead++
	if e.runHead%touchBlock == 0 && e.runHead < len(e.run) && len(e.touching) > 0 {
		e.touchRun()
	}
}

// touchRun calls each touching lane's hook once with its args in the block of
// the open run that starts at runHead (near) and in the block after it
// (ahead).
func (e *Engine) touchRun() {
	h := e.runHead
	near := e.run[h:min(h+touchBlock, len(e.run))]
	ahead := e.run[h+len(near) : min(h+2*touchBlock, len(e.run))]
	for _, t := range e.touching {
		buf := e.touchBuf[:0]
		for _, x := range near {
			if x.lane == t.id {
				buf = append(buf, x.slot)
			}
		}
		n := len(buf)
		for _, x := range ahead {
			if x.lane == t.id {
				buf = append(buf, x.slot)
			}
		}
		t.touch(buf[n:], buf[:n])
	}
}

// push adds x to the heap.
func (e *Engine) push(x entry) {
	q := append(e.queue, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	e.queue = q
}

// pop removes and returns the earliest entry; the heap must be non-empty.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if q[k].before(q[m]) {
				m = k
			}
		}
		if !q[m].before(x) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = x
	return top
}

// Where next found the earliest pending event.
const (
	fromNone  = iota // nothing is pending
	fromBatch        // the head of a batch
	fromHeap         // the heap top
	fromRun          // the head of the open run
)

// next returns the earliest pending event in (at, seq) order and where it
// waits, with the batch when that is where. The next filed minute opens once
// the open run is drained and no other head is earlier than that minute's
// start. A cancelled slab event, or a lane entry its owner no longer calls
// live, is dropped only when it is the earliest of all heads, as a single
// queue holding everything would drop it: Pending counts it until then, and
// it is no step.
func (e *Engine) next() (top entry, b *Batch, from int) {
	var bTop entry
	bFrom := fromNone
	for _, x := range e.batches {
		if x.head == len(x.ents) {
			continue
		}
		if !x.sorted {
			x.sort()
			if x.touch != nil {
				x.touchAhead(x.head)
			}
		}
		h := entry{at: x.ents[x.head].at, seq: x.ents[x.head].seq}
		if b == nil || h.before(bTop) {
			bTop, b, bFrom = h, x, fromBatch
		}
	}
	for {
		if e.runHead == len(e.run) && e.calLen > 0 {
			start := Time(e.calMin * int64(Minute))
			if (b == nil || bTop.at >= start) && (len(e.queue) == 0 || e.queue[0].at >= start) {
				e.openMinute()
			}
		}
		top, from = bTop, bFrom
		if e.runHead < len(e.run) {
			r := e.run[e.runHead]
			x := entry{at: e.openAt + Time(r.off), seq: r.seq, slot: r.slot, lane: r.lane}
			if from == fromNone || x.before(top) {
				top, from = x, fromRun
			}
		}
		if len(e.queue) > 0 && (from == fromNone || e.queue[0].before(top)) {
			top, from = e.queue[0], fromHeap
		}
		if from == fromNone || from == fromBatch {
			return top, b, from
		}
		if top.lane != 0 {
			if e.lanes[top.lane-1].live(top.slot, top.seq) {
				return top, b, from
			}
		} else if !e.events.At(top.slot).cancelled {
			return top, b, from
		}
		if from == fromHeap {
			e.pop()
		} else {
			e.advanceRun()
		}
		if top.lane == 0 {
			e.release(top.slot)
		}
	}
}

// dispatch runs top, which next has just returned with b and from.
func (e *Engine) dispatch(top entry, b *Batch, from int) {
	e.now = top.at
	e.steps++
	if from == fromBatch {
		b.fn(e.now, b.take())
		return
	}
	if from == fromHeap {
		e.pop()
	} else {
		e.advanceRun()
	}
	if top.lane != 0 {
		e.lanes[top.lane-1].fn(e.now, top.slot)
		return
	}
	ev := *e.events.At(top.slot)
	if ev.period > 0 {
		// Re-arm before running so the callback can cancel via its handle.
		e.enqueue(entry{at: top.at.Add(Duration(ev.period)), seq: e.seq, slot: top.slot})
		e.seq++
	} else {
		// Release before running so the callback's own scheduling reuses
		// the slot while it is still in cache.
		e.release(top.slot)
	}
	ev.fn(e.now)
}

// Step executes the next pending event, advancing the clock to its timestamp.
// It reports whether an event was executed (false when the queue is empty or
// the engine was stopped).
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	top, b, from := e.next()
	if from != fromNone {
		e.dispatch(top, b, from)
	}
	return from != fromNone
}

// Run executes events until the queue is empty, Stop is called, or the step
// limit is exceeded.
func (e *Engine) Run() error {
	for e.Step() {
		if e.stepLim > 0 && e.steps > e.stepLim {
			return fmt.Errorf("%w after %d events at %v", ErrStepLimit, e.steps, e.now)
		}
	}
	return nil
}

// RunUntil executes events with timestamps ≤ end, then sets the clock to end.
// Events scheduled after end remain queued, so the simulation can be resumed.
func (e *Engine) RunUntil(end Time) error {
	for !e.stopped {
		top, b, from := e.next()
		if from == fromNone || top.at > end {
			break
		}
		e.dispatch(top, b, from)
		if e.stepLim > 0 && e.steps > e.stepLim {
			return fmt.Errorf("%w after %d events at %v", ErrStepLimit, e.steps, e.now)
		}
	}
	if !e.stopped && e.now < end {
		e.now = end
	}
	return nil
}

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of queued (possibly cancelled) events, batch
// and calendar entries included; intended for tests and diagnostics.
func (e *Engine) Pending() int {
	n := len(e.queue) + e.calLen + len(e.run) - e.runHead
	for _, b := range e.batches {
		n += len(b.ents) - b.head
	}
	return n
}

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Lane holds one-shot events that share a callback and whose owner, not the
// engine, decides whether each is still due: a scheduler's job completions.
// An entry carries its arg (a slot in the owner's own slab) in the queue
// entry itself and owns no slab record, so scheduling one writes nothing but
// the queue, and dispatching one touches no engine record before the
// owner's. At returns the entry's seq; the owner keeps it beside the arg and
// answers live(arg, seq) for it. "Cancelling" is the owner forgetting seq —
// freeing the arg, or scheduling the arg again, which gives a new seq — and
// the dead entry is dropped without a step when it surfaces, exactly as a
// cancelled slab event is, so Pending, Steps and the (at, seq) order are
// those of At with Cancel.
//
// The contract: once live returns false for an (arg, seq) pair it returns
// false for that pair ever after. seq is unique, so an owner that compares
// the seq it holds for arg with the one asked about meets it.
//
// A lane may have a touch hook, which lets the owner load the records of the
// completions coming next before they are needed. The entries of the open
// minute's calendar run are dispatched in order from one sorted array; each
// time its head enters a block of touchBlock entries (the run's first block
// included), the engine calls touch(ahead, near) once: near holds the lane's
// args in that block, ahead those in the block after it. An arg in near was
// in ahead one block earlier, so the owner can load its first record for
// ahead and what that record points at for near. Entries waiting in the heap
// (the open minute's stragglers, and events 128 or more minutes out) are not
// touched. A touch hook:
//   - only loads: it writes nothing but a sink of its own that keeps the
//     loads from being compiled away, and it does not allocate or schedule;
//   - must tolerate dead entries: the arg's slot may be free, or reused by a
//     later entry, so whatever the record holds (a free-list link, −1, an
//     index past the owner's tables) must be bounds-checked before it is
//     followed;
//   - must not keep the lists, which the engine reuses.
//
// Touching changes no order, draw or output.
type Lane struct {
	eng  *Engine
	fn   func(now Time, arg int32)
	live func(arg int32, seq uint64) bool
	id   uint8 // the entries' lane byte
}

// NewLane returns an empty lane whose live entries run fn(at, arg); live
// says whether the entry (arg, seq) is still due when it surfaces, and touch,
// when not nil, is the lane's touch hook (see Lane). An engine holds at most
// 255 lanes.
func (e *Engine) NewLane(fn func(now Time, arg int32), live func(arg int32, seq uint64) bool, touch func(ahead, near []int32)) *Lane {
	if len(e.lanes) == 255 {
		panic("sim: more than 255 lanes")
	}
	l := &Lane{eng: e, fn: fn, live: live, id: uint8(len(e.lanes) + 1)}
	e.lanes = append(e.lanes, l)
	if touch != nil {
		e.touching = append(e.touching, laneTouch{l.id, touch})
	}
	return l
}

// At schedules fn(t, arg) at virtual time t and returns the entry's seq.
// Scheduling in the past (before Now) panics.
func (l *Lane) At(t Time, arg int32) uint64 {
	e := l.eng
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling lane entry %d at %v, before now %v", arg, t, e.now))
	}
	seq := e.seq
	e.enqueue(entry{at: t, seq: seq, slot: arg, lane: l.id})
	e.seq++
	return seq
}

// Batch holds one-shot events that share a callback and are never cancelled,
// outside the heap: a workload's arrivals, added a minute at a time. Add is
// an append; the engine sorts the batch the first time it looks at it after
// an Add, and dispatching an entry is an index bump. Entries take their seq
// from the engine's counter at Add, exactly as At does, so a batch entry and
// a heap entry at the same time fire in the order they were scheduled.
//
// A batch may have a touch hook, which lets the owner load the records of
// the entries coming next before they are needed: whenever the head enters a
// block of touchBlock entries (an index into ents that is a multiple of it),
// the engine calls touch once with the args of the block after the head's;
// when it sorts the batch, it calls touch with the args from the head to the
// end of the head's block, then with those of the next block. Every entry is
// so handed over before it is dispatched. The hook
// obeys Lane's touch contract: it only loads, does not allocate or schedule,
// and keeps no list.
type Batch struct {
	eng   *Engine
	name  string
	fn    ArgEvent
	touch func(args []int64)
	// ents[head:] are pending; ents[:head] were dispatched. Among pending
	// entries at one time seq always ascends: an Add appends a larger seq
	// than any pending one, and sorting and giving back the dispatched
	// prefix keep relative order. sorted says they are in at order too.
	ents   []batchEntry
	head   int
	sorted bool
	spare  []batchEntry // the radix sort's other buffer
	counts []int32      // the radix sort's digit counts
}

type batchEntry struct {
	at  Time
	seq uint64
	arg int64
}

// NewBatch returns an empty batch whose entries run fn(at, arg); name is for
// panic messages, and touch, when not nil, is the batch's touch hook (see
// Batch).
func (e *Engine) NewBatch(name string, fn ArgEvent, touch func(args []int64)) *Batch {
	b := &Batch{eng: e, name: name, fn: fn, touch: touch}
	e.batches = append(e.batches, b)
	return b
}

// Add schedules fn(t, arg) at virtual time t. Scheduling in the past (before
// Now) panics, as it does for a heap event.
func (b *Batch) Add(t Time, arg int64) {
	e := b.eng
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", b.name, t, e.now))
	}
	b.ents = append(b.ents, batchEntry{at: t, seq: e.seq, arg: arg})
	e.seq++
	b.sorted = false
}

// take consumes the head entry and returns its arg. A drained batch rewinds
// to the start of its buffer; a batch that never drains gives back its
// consumed prefix once that is more than half its length, so the length
// stays within twice the entries pending.
func (b *Batch) take() int64 {
	arg := b.ents[b.head].arg
	b.head++
	if n := len(b.ents); b.head == n {
		b.ents, b.head = b.ents[:0], 0
	} else if b.head > n/2 {
		b.ents = b.ents[:copy(b.ents, b.ents[b.head:])]
		b.head = 0
	}
	if b.touch != nil && b.head%touchBlock == 0 && b.head+touchBlock < len(b.ents) {
		b.touchAhead(b.head + touchBlock)
	}
	return arg
}

// touchAhead calls the touch hook with the args of ents[lo:] up to the end
// of the block after the head's, lo being at most that: one call per block
// it reaches into.
func (b *Batch) touchAhead(lo int) {
	hi := min(b.head-b.head%touchBlock+2*touchBlock, len(b.ents))
	for lo < hi {
		end := min(lo-lo%touchBlock+touchBlock, hi)
		buf := b.eng.touchArgs[:0]
		for _, x := range b.ents[lo:end] {
			buf = append(buf, x.arg)
		}
		b.touch(buf)
		lo = end
	}
}

// sort puts the pending entries in (at, seq) order. They are in seq order
// among equal times (see Batch), so a stable sort on at alone suffices: an
// LSD radix sort on at − min(at), in as few passes of at most
// clamp(log₂ n, 6, 16)-bit digits as the key span needs, digits evened out
// across the passes. One pass costs O(n + 2^digit) = O(n).
func (b *Batch) sort() {
	b.sorted = true
	src := b.ents[b.head:]
	n := len(src)
	lo, hi := src[0].at, src[0].at
	inOrder := true
	for i := 1; i < n; i++ {
		at := src[i].at
		inOrder = inOrder && at >= src[i-1].at
		lo, hi = min(lo, at), max(hi, at)
	}
	if inOrder {
		return // one entry and a zero span included: no key to sort on
	}
	keyBits := bits.Len64(uint64(hi - lo))
	digit := min(max(bits.Len(uint(n)), 6), 16)
	passes := (keyBits + digit - 1) / digit
	digit = (keyBits + passes - 1) / passes
	if cap(b.spare) < n {
		b.spare = make([]batchEntry, cap(b.ents))
	}
	if len(b.counts) < 1<<digit {
		b.counts = make([]int32, 1<<digit)
	}
	counts := b.counts[:1<<digit]
	mask := uint64(len(counts) - 1)
	dst := b.spare[:n]
	for shift := 0; shift < keyBits; shift += digit {
		clear(counts)
		for i := range src {
			counts[uint64(src[i].at-lo)>>shift&mask]++
		}
		sum := int32(0)
		for d, c := range counts {
			counts[d] = sum
			sum += c
		}
		for i := range src {
			d := uint64(src[i].at-lo) >> shift & mask
			dst[counts[d]] = src[i]
			counts[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		// The sorted entries are in the spare buffer: swap the two.
		b.ents, b.spare = src, b.ents[:0]
		b.head = 0
	}
}
