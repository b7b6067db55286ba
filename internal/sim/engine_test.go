package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(30*Time(Second), "c", func(now Time) { got = append(got, now) })
	e.At(10*Time(Second), "a", func(now Time) { got = append(got, now) })
	e.At(20*Time(Second), "b", func(now Time) { got = append(got, now) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Time(Second), 20 * Time(Second), 30 * Time(Second)}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 30*Time(Second) {
		t.Errorf("clock at %v, want 30s", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(Minute), "tied", func(Time) { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tied events ran out of order: %v", order)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(Time(Minute), "later", func(Time) {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling before Now did not panic")
		}
	}()
	e.At(0, "past", func(Time) {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(Time(Second), "x", func(Time) { fired = true })
	e.Cancel(h)
	e.Cancel(h) // double-cancel is a no-op
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEnginePeriodic(t *testing.T) {
	e := NewEngine()
	count := 0
	var h Handle
	h = e.Every(Time(Minute), Minute, "tick", func(now Time) {
		count++
		if count == 5 {
			e.Cancel(h)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("periodic event fired %d times, want 5", count)
	}
	if e.Now() != Time(5*Minute) {
		t.Errorf("clock at %v, want 5m", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(0, Minute, "tick", func(Time) { count++ })
	if err := e.RunUntil(Time(10 * Minute)); err != nil {
		t.Fatal(err)
	}
	if count != 11 { // fires at 0,1,...,10 minutes inclusive
		t.Errorf("fired %d times, want 11", count)
	}
	if e.Now() != Time(10*Minute) {
		t.Errorf("clock at %v, want 10m", e.Now())
	}
	// Resume: the periodic event is still armed.
	if err := e.RunUntil(Time(12 * Minute)); err != nil {
		t.Fatal(err)
	}
	if count != 13 {
		t.Errorf("after resume fired %d times, want 13", count)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	if err := e.RunUntil(Time(Hour)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(Hour) {
		t.Errorf("idle clock at %v, want 1h", e.Now())
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := NewEngine()
	e.SetStepLimit(10)
	e.Every(0, Millisecond, "spin", func(Time) {})
	if err := e.Run(); err == nil {
		t.Fatal("expected step-limit error")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(0, Second, "tick", func(Time) {
		count++
		if count == 3 {
			e.Stop()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("ran %d events after Stop, want 3", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(Time(Second), "first", func(now Time) {
		got = append(got, "first")
		e.After(Second, "second", func(Time) { got = append(got, "second") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "second" {
		t.Errorf("chained events = %v", got)
	}
}

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "d0 00:00:00.000"},
		{Time(Day + Hour + Minute + Second + 1), "d1 01:01:01.001"},
		{Time(90 * Second), "d0 00:01:30.000"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDurationHelpers(t *testing.T) {
	if d := DurationOfSeconds(1.5); d != 1500*Millisecond {
		t.Errorf("DurationOfSeconds(1.5) = %d", d)
	}
	if d := DurationOfMinutes(2); d != 2*Minute {
		t.Errorf("DurationOfMinutes(2) = %d", d)
	}
	if m := (90 * Second).Minutes(); m != 1.5 {
		t.Errorf("Minutes() = %v", m)
	}
	if h := Time(3*Hour + Minute).HourOfDay(); h != 3 {
		t.Errorf("HourOfDay = %d", h)
	}
	if h := Time(25 * Hour).HourOfDay(); h != 1 {
		t.Errorf("HourOfDay wraps to %d, want 1", h)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSubSeedIndependence(t *testing.T) {
	s1 := SubSeed(1, "arrivals")
	s2 := SubSeed(1, "noise")
	s3 := SubSeed(2, "arrivals")
	if s1 == s2 || s1 == s3 {
		t.Errorf("SubSeed collisions: %x %x %x", s1, s2, s3)
	}
	if s1 != SubSeed(1, "arrivals") {
		t.Error("SubSeed not deterministic")
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(7)
	for _, mean := range []float64{0.5, 3, 12, 200} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += Poisson(r, mean)
		}
		got := float64(sum) / float64(n)
		if got < mean*0.95-0.05 || got > mean*1.05+0.05 {
			t.Errorf("Poisson(%v) sample mean %v", mean, got)
		}
	}
	if Poisson(r, 0) != 0 || Poisson(r, -1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

// Property: RunUntil never moves the clock backwards and never executes an
// event beyond the horizon.
func TestRunUntilMonotonicProperty(t *testing.T) {
	f := func(delays []uint16, horizon uint16) bool {
		e := NewEngine()
		ok := true
		for _, d := range delays {
			at := Time(d) * Time(Second)
			e.At(at, "evt", func(now Time) {
				if now != at || now > Time(horizon)*Time(Second)+Time(horizon)*Time(Second) {
					ok = false
				}
			})
		}
		end := Time(horizon) * Time(Second)
		prev := e.Now()
		if err := e.RunUntil(end); err != nil {
			return false
		}
		if e.Now() < prev || e.Now() != end && e.Pending() == 0 {
			// Clock must land exactly on the horizon when it did not stop.
			return e.Now() == end
		}
		return ok && e.Now() == end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refEngine is the engine this package shipped before the 4-ary heap and the
// event slab: container/heap over pointers to heap-allocated items, handles
// that point at their item. It is the oracle for TestEngineMatchesReference.
type refEngine struct {
	now     Time
	queue   refHeap
	seq     uint64
	stopped bool
	steps   uint64
}

type refItem struct {
	at        Time
	seq       uint64
	fn        Event
	interval  Duration
	cancelled bool
	// live, when set, is asked when the item surfaces: a lane entry whose
	// owner has forgotten it is as good as cancelled.
	live  func() bool
	index int
}

// dead reports whether it is to be dropped rather than run.
func (it *refItem) dead() bool { return it.cancelled || it.live != nil && !it.live() }

type refHandle struct{ item *refItem }

func (h *refHandle) Cancel() { h.item.cancelled = true }

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	it := x.(*refItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*h = old[:n-1]
	return it
}

func (e *refEngine) schedule(t Time, interval Duration, fn Event) *refHandle {
	if t < e.now {
		panic(fmt.Sprintf("ref: scheduling at %v, before now %v", t, e.now))
	}
	it := &refItem{at: t, seq: e.seq, fn: fn, interval: interval}
	e.seq++
	heap.Push(&e.queue, it)
	return &refHandle{item: it}
}

func (e *refEngine) Step() bool {
	for len(e.queue) > 0 && !e.stopped {
		it := heap.Pop(&e.queue).(*refItem)
		if it.dead() {
			continue
		}
		e.now = it.at
		e.steps++
		if it.interval > 0 {
			it.at = it.at.Add(it.interval)
			it.seq = e.seq
			e.seq++
			heap.Push(&e.queue, it)
		}
		it.fn(e.now)
		return true
	}
	return false
}

func (e *refEngine) RunUntil(end Time) error {
	for len(e.queue) > 0 && !e.stopped {
		next := e.peek()
		if next == nil {
			break
		}
		if next.at > end {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < end {
		e.now = end
	}
	return nil
}

func (e *refEngine) peek() *refItem {
	for len(e.queue) > 0 {
		if e.queue[0].dead() {
			heap.Pop(&e.queue)
			continue
		}
		return e.queue[0]
	}
	return nil
}

// scriptedEngine is what the random script needs of either engine; cancel
// functions stand in for the two handle types.
type scriptedEngine struct {
	now      func() Time
	at       func(t Time, fn Event) (cancel func())
	after    func(d Duration, fn Event) (cancel func())
	every    func(start Time, interval Duration, fn Event) (cancel func())
	newLane  func(fn func(Time, int32), live func(int32, uint64) bool) (at func(t Time, arg int32) uint64)
	newBatch func(fn ArgEvent) (add func(t Time, arg int64))
	runUntil func(end Time) error
	steps    func() uint64
	pending  func() int
	touch    *touchCheck // the engine's touch calls; nil for the reference
}

// scriptNew is the engine under test, its lane and batches given touch
// hooks that hold every call to the touch contract.
func scriptNew() scriptedEngine {
	e := NewEngine()
	c := &touchCheck{e: e, touched: map[int64]bool{}}
	canceller := func(h Handle) func() { return func() { e.Cancel(h) } }
	return scriptedEngine{
		now:   e.Now,
		at:    func(t Time, fn Event) func() { return canceller(e.At(t, "at", fn)) },
		after: func(d Duration, fn Event) func() { return canceller(e.After(d, "after", fn)) },
		every: func(start Time, iv Duration, fn Event) func() { return canceller(e.Every(start, iv, "every", fn)) },
		newLane: func(fn func(Time, int32), live func(int32, uint64) bool) func(Time, int32) uint64 {
			t := &laneTouches{}
			c.lanes = append(c.lanes, t)
			t.l = e.NewLane(fn, live, func(ahead, near []int32) { c.lane(t, ahead, near) })
			return t.l.At
		},
		newBatch: func(fn ArgEvent) func(Time, int64) {
			var b *Batch
			b = e.NewBatch("batch", func(now Time, arg int64) {
				c.dispatched(arg)
				fn(now, arg)
			}, func(args []int64) { c.batch(b, args) })
			return b.Add
		},
		runUntil: func(end Time) error {
			err := e.RunUntil(end)
			c.settled()
			return err
		},
		steps: e.Steps, pending: e.Pending, touch: c,
	}
}

// touchCheck records the touch calls of an engine's lanes and batches and
// holds them to the contract of Lane and Batch: a lane is touched exactly at
// each block start of each run, its first block included and no block
// skipped (dead-entry drops included), with its own args of that block and
// the next; a batch is handed only args of its head's block and the next,
// and every entry it dispatches was handed over while pending.
type touchCheck struct {
	e          *Engine
	lanes      []*laneTouches
	batchCalls int
	touched    map[int64]bool // batch args handed over and not yet dispatched
	err        error          // the first breach
}

// laneTouches is one lane's record: its calls, those whose block the head
// entered by dropping a dead entry of the lane, and the last call's open
// minute, head and run length.
type laneTouches struct {
	l            *Lane
	calls, drops int
	open         int64
	head, n      int
}

func (c *touchCheck) fail(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, a...)
	}
}

// laneArgs returns the args of the entries of ents on lane id, in order.
func laneArgs(ents []calEntry, id uint8) []int32 {
	var args []int32
	for _, x := range ents {
		if x.lane == id {
			args = append(args, x.slot)
		}
	}
	return args
}

func (c *touchCheck) lane(t *laneTouches, ahead, near []int32) {
	e, id := c.e, t.l.id
	h, n := e.runHead, len(e.run)
	newRun := t.calls == 0 || e.open != t.open
	switch {
	case h%touchBlock != 0 || h >= n:
		c.fail("lane %d touched at run head %d of %d, not at a block's start", id, h, n)
	case !newRun && h != t.head+touchBlock:
		c.fail("minute %d: lane %d touched at head %d after %d: a block was skipped", e.open, id, h, t.head)
	case newRun && h != 0:
		c.fail("minute %d: lane %d's first touch of the run is at head %d", e.open, id, h)
	case newRun && t.calls > 0 && t.head+touchBlock < t.n:
		c.fail("minute %d's run of %d was last touched on lane %d at head %d", t.open, t.n, id, t.head)
	case !slices.Equal(near, laneArgs(e.run[h:min(h+touchBlock, n)], id)):
		c.fail("minute %d head %d: lane %d near %v, the block's lane args %v", e.open, h, id, near, laneArgs(e.run[h:min(h+touchBlock, n)], id))
	case !slices.Equal(ahead, laneArgs(e.run[min(h+touchBlock, n):min(h+2*touchBlock, n)], id)):
		c.fail("minute %d head %d: lane %d ahead %v, the next block's lane args %v", e.open, h, id, ahead, laneArgs(e.run[min(h+touchBlock, n):min(h+2*touchBlock, n)], id))
	}
	if h > 0 && h <= n {
		if x := e.run[h-1]; x.lane == id && !t.l.live(x.slot, x.seq) {
			t.drops++
		}
	}
	t.open, t.head, t.n = e.open, h, n
	t.calls++
}

// settled checks, between runs, that each lane's last call was at the block
// of the open run's head, or at the run's last block once it is drained.
func (c *touchCheck) settled() {
	e := c.e
	if len(e.run) == 0 {
		return // no minute has opened
	}
	last := min(e.runHead, len(e.run)-1)
	for _, t := range c.lanes {
		if t.calls == 0 || t.n != len(e.run) || t.head != last-last%touchBlock ||
			e.runHead < len(e.run) && t.open != e.open {
			c.fail("run of %d at head %d in minute %d, last touch of lane %d at head %d of %d in minute %d (%d calls)",
				len(e.run), e.runHead, e.open, t.l.id, t.head, t.n, t.open, t.calls)
		}
	}
}

func (c *touchCheck) batch(b *Batch, args []int64) {
	c.batchCalls++
	h := b.head
	next := b.ents[h:min(h-h%touchBlock+2*touchBlock, len(b.ents))]
	for _, a := range args {
		if !slices.ContainsFunc(next, func(x batchEntry) bool { return x.arg == a }) {
			c.fail("batch touched arg %d outside its head's block and the next", a)
		}
		c.touched[a] = true
	}
}

func (c *touchCheck) dispatched(arg int64) {
	if !c.touched[arg] {
		c.fail("batch dispatched arg %d, never touched", arg)
	}
	delete(c.touched, arg)
}

func scriptRef() scriptedEngine {
	e := &refEngine{}
	return scriptedEngine{
		now:   func() Time { return e.now },
		at:    func(t Time, fn Event) func() { return e.schedule(t, 0, fn).Cancel },
		after: func(d Duration, fn Event) func() { return e.schedule(e.now.Add(d), 0, fn).Cancel },
		every: func(start Time, iv Duration, fn Event) func() { return e.schedule(start, iv, fn).Cancel },
		// The old engine had no lanes: a lane entry is a one-shot closure
		// that its owner's live cancels when it surfaces.
		newLane: func(fn func(Time, int32), live func(int32, uint64) bool) func(Time, int32) uint64 {
			return func(t Time, arg int32) uint64 {
				seq := e.seq
				it := e.schedule(t, 0, func(now Time) { fn(now, arg) }).item
				it.live = func() bool { return live(arg, seq) }
				return seq
			}
		},
		// A batch entry is a one-shot nobody cancels.
		newBatch: func(fn ArgEvent) func(Time, int64) {
			return func(t Time, arg int64) { e.schedule(t, 0, func(now Time) { fn(now, arg) }) }
		},
		runUntil: e.RunUntil,
		steps:    func() uint64 { return e.steps },
		pending:  func() int { return len(e.queue) },
	}
}

type dispatch struct {
	at Time
	id int64
}

// laneCover counts what a script did on its lane that the reference must
// see the same way: kills of an entry before it surfaced, reschedules to the
// millisecond the entry was already due at, args reused after a kill under a
// new seq, and whether its first entry took the engine's first seq. The
// engine's touch calls are counted too: the lanes', those on a block entered
// by a dead-entry drop, and the batches'.
type laneCover struct {
	kills, sameMs, reused            int
	firstSeq                         bool
	touches, dropTouches, batchTouch int
}

func (c *laneCover) add(o laneCover) {
	c.kills += o.kills
	c.sameMs += o.sameMs
	c.reused += o.reused
	c.firstSeq = c.firstSeq || o.firstSeq
	c.touches += o.touches
	c.dropTouches += o.dropTouches
	c.batchTouch += o.batchTouch
}

// checkpoint is what the engines must agree on after every RunUntil.
type checkpoint struct {
	now      Time
	steps    uint64
	pending  int
	dispatch int // trace length
}

// batchMix is how much of a script goes through batches: batches of them
// (0, 1 or 2), and share/256 of its spawned one-shots; and the script's time
// unit, which scales its delays, periods and RunUntil steps (0 means 1 ms).
type batchMix struct {
	batches int
	share   int
	unit    Duration
}

// scriptUnits are the time units a script runs at: at 1 ms its clock never
// leaves minute 0; at a tenth of a minute and at whole minutes it fills the
// calendar, its ties falling on minute boundaries; at 13 minutes its longer
// delays and periods overflow the calendar's ring.
var scriptUnits = []Duration{Millisecond, Minute / 10, Minute, 13 * Minute}

// runScript drives e with a seeded random script and returns every dispatch
// as (time, id), a checkpoint per RunUntil and what it did on its lane. Each
// callback draws from the script's one random stream, so two engines stay in
// step only for as long as they dispatch in the same order. The script
// covers one-shots at, after and on a lane; schedule-at-now from inside a
// callback; periodics that cancel themselves from inside their own callback;
// cancels of live, fired and already-cancelled events, long after the slot
// has a new tenant; and bursts of thousands of events on one timestamp. Its
// lane entries are owned as a scheduler owns completions: an arg is a slot
// that holds one job and the seq of its live entry, and a cancel is a kill
// that frees the slot for reuse under a new seq; callbacks also reschedule
// held slots, a third of the time to the millisecond already due, and the
// script's first event is a lane entry. Even slots go on one lane and odd
// ones on another, which share the owner. About one spawn in 16 is 0–300 whole
// minutes out, beyond the calendar's ring. With batches it also adds batch
// entries from inside callbacks, between runs and in bursts, and a bulk each
// round spread over a span from 1 to 2^11 units or, late on, up to 2^40 ms,
// so the radix sort runs from one pass to several.
func runScript(e scriptedEngine, seed int64, mix batchMix) ([]dispatch, []checkpoint, laneCover) {
	r := rand.New(rand.NewSource(seed))
	unit := max(mix.unit, Millisecond)
	var trace []dispatch
	var marks []checkpoint
	var cancels []func() // every handle ever issued, never pruned
	nextID := int64(0)
	var batches []func(t Time, arg int64)
	var cover laneCover

	// The lane's owner: slot a holds job id[a] (spawned at depth[a]) while
	// seq[a] is the seq of its live entry, due at at[a]; a free slot holds
	// noSeq and waits in free. killed[a] says the slot was last freed by a
	// kill rather than by its entry running.
	const noSeq = ^uint64(0)
	var own struct {
		seq    []uint64
		id     []int64
		depth  []int
		at     []Time
		killed []bool
		free   []int32
	}
	release := func(a int32, kill bool) {
		own.seq[a], own.killed[a] = noSeq, kill
		own.free = append(own.free, a)
	}

	var spawn func(depth int)
	var laneAt func(t Time, arg int32) uint64
	record := func(now Time, id int64, depth int) {
		trace = append(trace, dispatch{now, id})
		if depth < 3 && r.Intn(3) == 0 {
			for k := r.Intn(3); k >= 0; k-- {
				spawn(depth + 1)
			}
		}
		if len(cancels) > 0 && r.Intn(4) == 0 {
			cancels[r.Intn(len(cancels))]()
		}
		for k := r.Intn(3); k > 0 && len(own.seq) > 0; k-- {
			// Reschedule a held slot, as a speed change does: the new seq
			// replaces the old, which is then dead.
			a := int32(r.Intn(len(own.seq)))
			if own.seq[a] == noSeq {
				continue
			}
			at := own.at[a]
			if r.Intn(3) != 0 {
				at = now.Add(Duration(r.Intn(12)) * unit)
			} else {
				cover.sameMs++
			}
			own.seq[a], own.at[a] = laneAt(at, a), at
		}
	}
	argFn := func(now Time, arg int64) { record(now, arg>>2, int(arg&3)) }
	for k := 0; k < mix.batches; k++ {
		batches = append(batches, e.newBatch(argFn))
	}
	complete := func(now Time, a int32) {
		if own.seq[a] == noSeq {
			panic(fmt.Sprintf("lane ran free slot %d", a))
		}
		id, depth := own.id[a], own.depth[a]
		release(a, false)
		record(now, id, depth)
	}
	live := func(a int32, seq uint64) bool { return own.seq[a] == seq }
	lanes := [2]func(t Time, arg int32) uint64{e.newLane(complete, live), e.newLane(complete, live)}
	laneAt = func(t Time, a int32) uint64 { return lanes[a%2](t, a) }
	// onLane holds job id in a free slot (reusing the last freed first) with
	// an entry at t, and returns the job's kill.
	onLane := func(t Time, id int64, depth int) (kill func()) {
		var a int32
		if n := len(own.free); n > 0 {
			a, own.free = own.free[n-1], own.free[:n-1]
			if own.killed[a] {
				cover.reused++
			}
		} else {
			a = int32(len(own.seq))
			own.seq, own.id, own.depth = append(own.seq, 0), append(own.id, 0), append(own.depth, 0)
			own.at, own.killed = append(own.at, 0), append(own.killed, false)
		}
		seq := laneAt(t, a)
		cover.firstSeq = cover.firstSeq || seq == 0
		own.seq[a], own.id[a], own.depth[a], own.at[a] = seq, id, depth, t
		return func() {
			if own.seq[a] != noSeq && own.id[a] == id {
				cover.kills++
				release(a, true)
			}
		}
	}
	spawn = func(depth int) {
		id := nextID
		nextID++
		// Coarse delays, zero included: ties and schedule-at-now are common.
		delay := Duration(r.Intn(12)) * unit
		if unit > Millisecond {
			// Up to 2 ms past a unit: one minute's calendar entries are
			// filed out of time order in the low byte of their offset.
			delay += Duration(r.Intn(3))
		}
		if r.Intn(16) == 0 {
			delay = Duration(r.Intn(301)) * Minute
		}
		if len(batches) > 0 && r.Intn(256) < mix.share {
			batches[r.Intn(len(batches))](e.now().Add(delay), id<<2|int64(depth))
			return
		}
		switch r.Intn(10) {
		case 0, 1, 2:
			cancels = append(cancels, e.at(e.now().Add(delay), func(now Time) { record(now, id, depth) }))
		case 3, 4:
			cancels = append(cancels, e.after(delay, func(now Time) { record(now, id, depth) }))
		case 5, 6, 7:
			cancels = append(cancels, onLane(e.now().Add(delay), id, depth))
		case 8:
			left := 1 + r.Intn(6)
			var cancel func()
			cancel = e.every(e.now().Add(delay), Duration(1+r.Intn(9))*unit, func(now Time) {
				record(now, id, depth)
				if left--; left == 0 {
					cancel()
				}
			})
			cancels = append(cancels, cancel)
		case 9:
			if len(cancels) > 0 {
				cancels[r.Intn(len(cancels))]()
			}
		}
	}

	// The first event is on the lane, so an owner holds seq 0.
	cancels = append(cancels, onLane(Time(r.Intn(12))*Time(unit), nextID, 0))
	nextID++

	end := Time(0)
	for round := 0; round < 60; round++ {
		for k := 20 + r.Intn(60); k > 0; k-- {
			spawn(0)
		}
		if round%20 == 7 {
			// Thousands of equal timestamps, a third of them cancelled.
			at := e.now().Add(Duration(r.Intn(5)) * unit)
			for k := 0; k < 3000; k++ {
				id := nextID
				nextID++
				var cancel func()
				switch {
				case k%3 != 0 && len(batches) > 0 && k%4 == 1:
					batches[k%len(batches)](at, id<<2|3)
					continue
				case k%2 == 0:
					cancel = e.at(at, func(now Time) { record(now, id, 3) })
				default:
					cancel = onLane(at, id, 3)
				}
				cancels = append(cancels, cancel)
				if k%3 == 0 {
					cancel()
				}
			}
		}
		if len(batches) > 0 {
			// Wide spans come late: their entries outlive the script, and
			// until then the batches drain and rewind.
			span := int64(1) << r.Intn(12) * int64(unit)
			if round >= 50 {
				span = int64(1) << r.Intn(41)
			}
			for k := r.Intn(300); k > 0; k-- {
				id := nextID
				nextID++
				at := e.now().Add(Duration(r.Int63n(span)))
				batches[r.Intn(len(batches))](at, id<<2|3)
			}
		}
		// Some horizons fall short of the next event, some leave work queued.
		end = end.Add(Duration(r.Intn(25)) * unit)
		if err := e.runUntil(end); err != nil {
			panic(err)
		}
		marks = append(marks, checkpoint{e.now(), e.steps(), e.pending(), len(trace)})
	}
	return trace, marks, cover
}

// matchReference runs one script on the engine and on refEngine and reports
// a breach of the touch contract or the first difference, or the number of
// dispatches and the lane's cover when there is none.
func matchReference(seed int64, mix batchMix) (int, laneCover, error) {
	eng := scriptNew()
	got, gotMarks, cover := runScript(eng, seed, mix)
	want, wantMarks, _ := runScript(scriptRef(), seed, mix)
	tc := eng.touch
	for _, t := range tc.lanes {
		cover.touches += t.calls
		cover.dropTouches += t.drops
	}
	cover.batchTouch = tc.batchCalls
	if tc.err != nil {
		return 0, cover, fmt.Errorf("touch: %w", tc.err)
	}
	for i := range wantMarks {
		if gotMarks[i] != wantMarks[i] {
			return 0, cover, fmt.Errorf("after RunUntil #%d engine at %+v, reference at %+v", i, gotMarks[i], wantMarks[i])
		}
	}
	if len(got) != len(want) {
		return 0, cover, fmt.Errorf("%d dispatches, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return 0, cover, fmt.Errorf("dispatch %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	return len(want), cover, nil
}

func TestEngineMatchesReference(t *testing.T) {
	var cover laneCover
	for seed := int64(1); seed <= 8; seed++ {
		mix := batchMix{batches: int(seed % 3), share: 32 * int(seed%4)}
		n, c, err := matchReference(seed, mix)
		if err != nil {
			t.Fatalf("seed %d, %+v: %v", seed, mix, err)
		}
		if n < 5000 {
			t.Fatalf("seed %d: script dispatched only %d events", seed, n)
		}
		cover.add(c)
	}
	// The calendar: ring overflow, cancelled entries and same-millisecond
	// ties across the heap, the calendar and the batches at minute starts.
	for _, unit := range scriptUnits[1:] {
		for seed := int64(1); seed <= 40; seed++ {
			mix := batchMix{batches: int(seed % 3), share: 32 * int(seed%4), unit: unit}
			n, c, err := matchReference(seed, mix)
			if err != nil {
				t.Fatalf("seed %d, %+v: %v", seed, mix, err)
			}
			if n < 5000 {
				t.Fatalf("seed %d, unit %v: script dispatched only %d events", seed, unit, n)
			}
			cover.add(c)
		}
	}
	if cover.kills == 0 || cover.sameMs == 0 || cover.reused == 0 || !cover.firstSeq ||
		cover.touches == 0 || cover.dropTouches == 0 || cover.batchTouch == 0 {
		t.Errorf("lane cover %+v: a case the scripts should reach went untested", cover)
	}
}

// The script seed, the batch mix and the time unit are the input; the engine
// must dispatch exactly as refEngine does with the same entries as one-shots.
// The seed corpus is in testdata/fuzz.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, batches, share, unit uint8) {
		mix := batchMix{batches: int(batches % 3), share: int(share), unit: scriptUnits[int(unit)%len(scriptUnits)]}
		if _, _, err := matchReference(seed, mix); err != nil {
			t.Fatalf("seed %d, %+v: %v", seed, mix, err)
		}
	})
}

// A handle outlives its event: once the slot has a new tenant, cancelling
// through the old handle must not touch the tenant.
func TestStaleHandleSparesNewTenant(t *testing.T) {
	e := NewEngine()
	old := e.At(Time(Second), "old", func(Time) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	tenant := e.At(Time(2*Second), "tenant", func(Time) { fired = true })
	if tenant.slot != old.slot {
		t.Fatalf("slot %d not recycled (tenant in %d): the test no longer tests anything", old.slot, tenant.slot)
	}
	e.Cancel(old)
	e.Cancel(Handle{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("cancelling a stale handle cancelled the slot's new tenant")
	}
}

// Scheduling lane entries and dispatching or dropping them on a warmed
// engine allocate nothing, through the heap and through the calendar, with a
// touch hook installed. Arg 3 is never live, so every run also drops a dead
// entry.
func TestLaneStepDoesNotAllocate(t *testing.T) {
	var sum int64
	fn := func(_ Time, arg int32) { sum += int64(arg) }
	live := func(arg int32, _ uint64) bool { return arg != 3 }
	touches := 0
	touch := func(ahead, near []int32) {
		touches++
		for _, a := range ahead {
			sum += int64(a)
		}
		for _, a := range near {
			sum -= int64(a)
		}
	}
	e := NewEngine()
	lane := e.NewLane(fn, live, touch)
	for i := 0; i < 1000; i++ {
		lane.At(Time(i%7), 1)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		lane.At(e.Now().Add(Second), 2)
		lane.At(e.Now().Add(Millisecond), 3)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Lane.At+Step allocates %.1f objects per run, want 0", allocs)
	}
	if e.Steps() != 1000+1001 || e.Pending() != 0 {
		t.Errorf("%d steps, %d pending; want 2001 and 0: a dead entry ran or a live one was dropped", e.Steps(), e.Pending())
	}

	// Minute-scale events go through the calendar: each run files a dozen
	// up to 150 minutes out, past the ring, and runs the engine three minutes
	// on, which opens three. Once the ring has turned several times over,
	// its chunks and run buffers are warm.
	e = NewEngine()
	lane = e.NewLane(fn, live, touch)
	k := 0
	minutes := func() {
		for i := 0; i < 12; i++ {
			k++
			lane.At(e.Now().Add(Duration(k%150)*Minute+Duration(k%60)*Second), int32(k%4))
		}
		lane.At(e.Now().Add(Duration(k%7)*Second), 1)
		if err := e.RunUntil(e.Now().Add(3 * Minute)); err != nil {
			t.Fatal(err)
		}
	}
	for e.Now() < Time(5*calMinutes*Minute) {
		minutes()
	}
	if allocs := testing.AllocsPerRun(1000, minutes); allocs != 0 {
		t.Errorf("Lane.At+Step through the calendar allocates %.1f objects per run, want 0", allocs)
	}
	if e.calLen == 0 || touches == 0 {
		t.Errorf("%d in the calendar of %d pending, %d touches: the test no longer tests it", e.calLen, e.Pending(), touches)
	}
}

// Batch entries interleave with heap events at the same time in the order
// they were scheduled, whichever side they were scheduled on.
func TestBatchKeepsFIFOWithHeap(t *testing.T) {
	e := NewEngine()
	var order []int64
	record := func(_ Time, arg int64) { order = append(order, arg) }
	a, b := e.NewBatch("a", record, nil), e.NewBatch("b", record, nil)
	lane := e.NewLane(func(now Time, arg int32) { record(now, int64(arg)) }, func(int32, uint64) bool { return true }, nil)
	for i := int64(0); i < 12; i++ {
		switch i % 3 {
		case 0:
			a.Add(Time(Second), i)
		case 1:
			lane.At(Time(Second), int32(i))
		case 2:
			b.Add(Time(Second), i)
		}
	}
	a.Add(0, 100)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("dispatch order %v, want %v", order, want)
	}
}

// RunUntil's horizon is inclusive for batch entries as for heap events, and
// what lies beyond it stays pending for the next run.
func TestBatchRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var got []Time
	b := e.NewBatch("arrival", func(now Time, _ int64) { got = append(got, now) }, nil)
	end := Time(Minute)
	b.Add(end+1, 0)
	b.Add(end, 0)
	if err := e.RunUntil(end); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != end || e.Now() != end {
		t.Fatalf("dispatched %v, clock %v; want only the entry at %v", got, e.Now(), end)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after the horizon, want 1", e.Pending())
	}
	if err := e.RunUntil(end + 1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != end+1 || e.Pending() != 0 {
		t.Errorf("resumed run dispatched %v, %d pending", got, e.Pending())
	}
}

func TestBatchStopFromCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	b := e.NewBatch("arrival", func(Time, int64) {
		if n++; n == 3 {
			e.Stop()
		}
	}, nil)
	for i := 0; i < 10; i++ {
		b.Add(Time(i), 0)
	}
	if err := e.RunUntil(Time(Hour)); err != nil {
		t.Fatal(err)
	}
	if n != 3 || e.Now() != 2 || e.Pending() != 7 {
		t.Errorf("after Stop: %d dispatched, clock %v, %d pending; want 3, 2ms, 7", n, e.Now(), e.Pending())
	}
	if e.Step() {
		t.Error("Step ran an entry on a stopped engine")
	}
}

// Batch dispatches are steps: they count in Steps and against the limit.
func TestBatchStepLimit(t *testing.T) {
	e := NewEngine()
	e.SetStepLimit(5)
	b := e.NewBatch("arrival", func(Time, int64) {}, nil)
	for i := 0; i < 10; i++ {
		b.Add(Time(i), 0)
	}
	if err := e.RunUntil(Time(Hour)); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("RunUntil = %v, want ErrStepLimit", err)
	}
	if e.Steps() != 6 || e.Pending() != 4 {
		t.Errorf("Steps() = %d, Pending() = %d; want 6 and 4", e.Steps(), e.Pending())
	}
}

func TestBatchPending(t *testing.T) {
	e := NewEngine()
	b := e.NewBatch("arrival", func(Time, int64) {}, nil)
	e.At(Time(Second), "heap", func(Time) {})
	for i := 5; i > 0; i-- {
		b.Add(Time(i), 0)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending() = %d, want 6", e.Pending())
	}
	e.Step()
	e.Step()
	if e.Pending() != 4 {
		t.Errorf("Pending() = %d after two steps, want 4", e.Pending())
	}
}

func TestBatchAddInPastPanics(t *testing.T) {
	e := NewEngine()
	b := e.NewBatch("job-arrival", func(Time, int64) {}, nil)
	if err := e.RunUntil(Time(Minute)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"job-arrival"`) {
			t.Fatalf("Add before Now panicked with %q, want the batch name", msg)
		}
	}()
	b.Add(Time(Minute)-1, 0)
}

func TestLaneAtInPastPanics(t *testing.T) {
	e := NewEngine()
	lane := e.NewLane(func(Time, int32) {}, func(int32, uint64) bool { return true }, nil)
	if err := e.RunUntil(Time(Minute)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lane entry before Now did not panic")
		}
	}()
	lane.At(Time(Minute)-1, 7)
}

// A batch that is never fully drained gives back its consumed prefix: with
// at most k entries pending, its buffers stay within a small multiple of k.
func TestBatchNeverDrainedStaysBounded(t *testing.T) {
	const k = 100
	e := NewEngine()
	var b *Batch
	b = e.NewBatch("refill", func(now Time, arg int64) {
		// Each entry schedules its successor after every pending one, so no
		// sort ever rewrites the buffer: only giving back the prefix can.
		b.Add(now.Add(k), arg)
	}, nil)
	for i := int64(0); i < k; i++ {
		b.Add(Time(i), i)
	}
	for i := 0; i < 100_000; i++ {
		if !e.Step() {
			t.Fatal("batch drained")
		}
	}
	if e.Pending() != k {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), k)
	}
	if c := cap(b.ents) + cap(b.spare); c > 8*k {
		t.Errorf("buffers hold %d entries for %d pending", c, k)
	}
}

// Adding to and dispatching from a warmed batch allocate nothing, with a
// touch hook installed.
func TestBatchStepDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	var sum int64
	touches := 0
	b := e.NewBatch("arrival", func(_ Time, arg int64) { sum += arg }, func(args []int64) {
		touches++
		for _, a := range args {
			sum -= a
		}
	})
	for i := 0; i < 1000; i++ {
		b.Add(Time(1000-i), 1)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Add(e.Now().Add(Second), 2)
		b.Add(e.Now().Add(Millisecond), 3)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Batch Add+Step allocates %.1f objects per run, want 0", allocs)
	}
	if touches == 0 {
		t.Error("the touch hook never ran: the test no longer tests it")
	}
}

// The lane byte sits in padding, so a queue entry costs what it did before
// lanes, and the slab record holds what an At or Every event needs alone.
// The touch hooks' buffers live in the Engine, which keeps it in its
// 2,048-byte size class (with the allocator's 8-byte header) and a Lane and
// a Batch in theirs (32 and 128 bytes): a federation's shards pay no memory
// for them.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"entry", unsafe.Sizeof(entry{}), 24},
		{"calEntry", unsafe.Sizeof(calEntry{}), 16},
		{"event", unsafe.Sizeof(event{}), 24},
		{"Engine", unsafe.Sizeof(Engine{}), 1984},
		{"Lane", unsafe.Sizeof(Lane{}), 32},
		{"Batch", unsafe.Sizeof(Batch{}), 128},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
