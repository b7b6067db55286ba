// Package service simulates the latency-critical interactive workload of
// §4.3: a Redis-like cluster of single-threaded server instances, each
// pinned to one machine, receiving an open-loop request stream from clients
// in another (uncontrolled) cluster. Each instance is an FCFS queue whose
// service rate scales with the host's DVFS frequency factor, so power
// capping inflates service times and builds queues — the mechanism behind
// the near-doubled 99.9th-percentile latencies in Fig 11 — while Ampere's
// freeze/unfreeze never touches running instances.
//
// Traffic comes from client classes (see Class): each class owns an arrival
// process — steady Poisson, diurnal, or bursty MMPP flash crowd — over the
// service's one operation table. Per window the classes' aggregate rates
// compose into one per-instance arrival stream (exponential inter-arrival
// gaps, each arrival assigned to a class proportionally to its rate share,
// then to an operation uniformly), so the cost of a window scales with the
// number of requests, not the number of simulated users.
package service

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Op is one benchmark operation type with its full-speed service time, in
// microseconds. The defaults mirror redis-benchmark's operation set used in
// Fig 11.
type Op struct {
	Name          string
	BaseServiceUS float64
	// SLOUS is the latency objective; requests completing later count as
	// SLO misses. Zero disables tracking for the op; New refuses a negative
	// or NaN objective. DefaultOps sets it to 20× the service time, a typical
	// interactive tail budget.
	SLOUS float64
}

// DefaultOps returns the six operations reported in Fig 11. Base service
// times are plausible single-thread Redis costs; only their relative
// inflation under capping matters for the reproduction.
func DefaultOps() []Op {
	ops := []Op{
		{Name: "SET", BaseServiceUS: 55},
		{Name: "GET", BaseServiceUS: 50},
		{Name: "LPUSH", BaseServiceUS: 62},
		{Name: "LPOP", BaseServiceUS: 58},
		{Name: "LRANGE_600", BaseServiceUS: 620},
		{Name: "MSET", BaseServiceUS: 185},
	}
	for i := range ops {
		ops[i].SLOUS = 20 * ops[i].BaseServiceUS
	}
	return ops
}

// Config parameterizes the client load.
type Config struct {
	// Classes are the client populations driving the service; their
	// aggregate arrival rate is spread evenly across the instances.
	Classes []Class
	// Ops lists the operation types (DefaultOps when nil); every request
	// draws one uniformly.
	Ops []Op
	// Window is the batch-processing granularity; requests within a window
	// are generated and replayed against the recorded frequency history at
	// the window's end. Zero means 10 s; negative is an error.
	Window sim.Duration
}

type speedSeg struct {
	at    sim.Time
	speed float64
}

type instance struct {
	server *cluster.Server
	// rng is the state word of the instance's request stream, the one
	// sim.SubRNG(seed, "service-instance-<i>") draws, drawn here with
	// sim.ExpFloat64 and sim.Float64.
	rng uint64
	// busyUntilMS is the virtual time (fractional ms) when the instance's
	// single thread frees up.
	busyUntilMS float64
	// segs is the frequency history within the current window, starting
	// with the speed at the window's start. Until the service starts the
	// listener keeps it collapsed to the single current-speed segment, so
	// an unstarted Service stays O(1) under 1 s capping churn.
	segs []speedSeg
	// closed is the history of the window being replayed. closeWindow swaps
	// it with segs, so the listener appends the next window's history to one
	// buffer while the replay reads the other, and both are reused.
	closed []speedSeg
	// out is the instance's replay of the window being sampled, in arrival
	// order. After the sample phase it is swapped with pending, which the
	// publish phase reads: the next window's sample phase publishes it
	// alongside its replays, or a reader does first.
	out, pending []arrival
}

// arrival is one replayed request as the sample phase hands it to publish:
// its latency with the latency's histogram bucket and SLO verdict, which the
// sample phase computes, so publish does no per-request work but the
// counting. 16 bytes, four to a cache line.
type arrival struct {
	latencyUS float64
	bucket    int32 // stats.LogHistogram.Bucket(latencyUS) of the latency layout
	class     uint16
	op        uint8
	miss      uint8 // 1 when latencyUS is over the op's SLO, else 0
}

// The most classes and ops an arrival's fields hold.
const (
	maxClasses = math.MaxUint16 + 1
	maxOps     = math.MaxUint8 + 1
)

// window is what every instance's replay reads of the window being closed:
// its start and length and each instance's arrival rate, in milliseconds.
type window struct {
	start, ms, perInstPerMS float64
}

const (
	// shareArrivals is the window one replay goroutine is worth: the sample
	// phase uses min(GOMAXPROCS, expected arrivals/shareArrivals) of them.
	// 32,768 arrivals are about a millisecond of replay against the ~1 µs a
	// helper costs to wake, and a window under two shares replays inline:
	// the quick rigs', the paper-scale fig11's and those of every test rig
	// but the fan-out tests.
	shareArrivals = 32768
	// blockInstances is how many instances one index of the replay loop
	// covers: few enough claims that the loop's cursor is never contended,
	// blocks small enough that the last one out keeps the others waiting for
	// microseconds.
	blockInstances = 8
)

// Service drives request generation and latency accounting.
//
// The mutex guards the accounting state (counters, histograms, per-class
// rates) against scrape-time readers: Instrument's collectors run on HTTP
// goroutines while the simulation thread closes windows. It is also the
// window in flight's: closeWindow locks it and the window goroutine unlocks
// it once the window is replayed, so the next close waits for every closed
// window's replay, and a reader (see lock) for its replay and publish.
type Service struct {
	eng       *sim.Engine
	window    sim.Duration
	ops       []Op
	classes   []*classState
	instances []*instance
	running   bool
	winStart  sim.Time
	windowIdx int64 // windows closed since New

	// The accounting: flat arrays indexed class·len(ops)+op, which publish
	// counts into, and their [class][op] views, which the readers take.
	mu                     sync.Mutex
	flatServed, flatMisses []int64
	flatHist               []*stats.LogHistogram // latency in µs
	served, sloMisses      [][]int64
	hist                   [][]*stats.LogHistogram
	cumShare               []float64 // scratch: cumulative class rate shares this window

	// The replay's per-op tables: the op pick's bounds (opBounds) and each
	// op's objective, +Inf for none.
	opBound, sloUS []float64

	// The sample phase of a window: win is what every replay reads, and
	// replays fans the replay out over blocks of blockInstances instances.
	win     window
	replays *runner.Loop
	// unpublished says the instances' pending buffers hold a replayed window
	// that no publish phase has counted yet.
	unpublished bool
}

// windowers is the process's window goroutines, which every Service shares:
// closeWindow hands a closed window to one, which replays it while the
// engine simulates the next window. A window goroutine parks on its own wake
// channel, which is in idle while it holds no Service, so a dropped Service
// is garbage; the goroutines never exit, and there are as many as the most
// windows ever in flight at once.
var windowers struct {
	sync.Mutex
	idle []chan *Service
}

// New pins one service instance on each given server and prepares the client
// load. The caller is responsible for reserving scheduler containers for the
// instances (scheduler.Reserve) so placement and power see their footprint.
// A Service subscribes to its servers' speed changes for the cluster's
// lifetime.
func New(eng *sim.Engine, seed uint64, cfg Config, servers []*cluster.Server) (*Service, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("service: no servers")
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("service: no client classes")
	}
	if len(cfg.Classes) > maxClasses {
		return nil, fmt.Errorf("service: %d client classes, at most %d", len(cfg.Classes), maxClasses)
	}
	switch {
	case cfg.Window < 0:
		return nil, fmt.Errorf("service: negative window %v", cfg.Window)
	case cfg.Window == 0:
		cfg.Window = 10 * sim.Second
	}
	ops := cfg.Ops
	if ops == nil {
		ops = DefaultOps()
	}
	if len(ops) == 0 || len(ops) > maxOps {
		return nil, fmt.Errorf("service: %d ops, want 1 to %d", len(ops), maxOps)
	}
	opNames := make(map[string]bool, len(ops))
	for i, op := range ops {
		switch {
		case op.Name == "":
			return nil, fmt.Errorf("service: op %d has no name", i)
		case opNames[op.Name]:
			return nil, fmt.Errorf("service: op %q duplicated", op.Name)
		case !(op.BaseServiceUS > 0) || math.IsInf(op.BaseServiceUS, 0):
			return nil, fmt.Errorf("service: op %d (%s) has service time %v", i, op.Name, op.BaseServiceUS)
		case !(op.SLOUS >= 0): // also catches NaN
			return nil, fmt.Errorf("service: op %d (%s) has SLO %v µs", i, op.Name, op.SLOUS)
		}
		opNames[op.Name] = true
	}

	s := &Service{eng: eng, window: cfg.Window, ops: ops}
	names := make(map[string]bool, len(cfg.Classes))
	peak := 0.0
	for ci, c := range cfg.Classes {
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("service: class %d: %w", ci, err)
		}
		if names[c.Name] {
			return nil, fmt.Errorf("service: class %q duplicated", c.Name)
		}
		names[c.Name] = true
		peak += c.peakRPS()
		s.classes = append(s.classes, &classState{cfg: c, rng: sim.SubRNG(seed, "service-class-"+c.Name)})
	}
	if math.IsInf(peak, 0) {
		return nil, fmt.Errorf("service: the classes' peak rates sum to %v requests/s", peak)
	}

	latency, err := stats.NewLogHistogram(1, 60e6, 2400) // 1 µs … 60 s
	if err != nil {
		return nil, err
	}
	nc, no := len(s.classes), len(ops)
	s.flatServed = make([]int64, nc*no)
	s.flatMisses = make([]int64, nc*no)
	s.flatHist = make([]*stats.LogHistogram, nc*no)
	for i := range s.flatHist {
		s.flatHist[i] = latency.Fresh()
	}
	for ci := range nc {
		lo, hi := ci*no, (ci+1)*no
		s.served = append(s.served, s.flatServed[lo:hi:hi])
		s.sloMisses = append(s.sloMisses, s.flatMisses[lo:hi:hi])
		s.hist = append(s.hist, s.flatHist[lo:hi:hi])
	}
	s.cumShare = make([]float64, nc)
	s.opBound = opBounds(no)
	s.sloUS = make([]float64, no)
	for k, op := range ops {
		s.sloUS[k] = op.SLOUS
		if op.SLOUS == 0 {
			s.sloUS[k] = math.Inf(1)
		}
	}
	s.replays = runner.NewLoop(s.replayBlock)

	for i, sv := range servers {
		inst := &instance{
			server: sv,
			rng:    sim.RNGState(sim.SubSeedN(seed, "service-instance-", i)),
		}
		inst.segs = []speedSeg{{at: eng.Now(), speed: sv.Speed()}}
		sv.OnSpeedChange(func(srv *cluster.Server, old float64) {
			if s.running {
				inst.segs = append(inst.segs, speedSeg{at: s.eng.Now(), speed: srv.Speed()})
				return
			}
			// No window is accumulating latency history: collapse to the
			// single current-speed segment instead of growing without bound.
			inst.segs = inst.segs[:1]
			inst.segs[0] = speedSeg{at: s.eng.Now(), speed: srv.Speed()}
		})
		s.instances = append(s.instances, inst)
	}
	return s, nil
}

// Start begins request processing; the first window closes one Window from
// now, and each instance's frequency history starts at the server's current
// speed. A second Start does nothing.
func (s *Service) Start() {
	if s.running {
		return
	}
	now := s.eng.Now()
	s.winStart = now
	for _, inst := range s.instances {
		inst.segs[0] = speedSeg{at: now, speed: inst.server.Speed()}
	}
	s.running = true
	s.eng.Every(now.Add(s.window), s.window, "service-window", s.closeWindow)
}

// handOff gives the window in win to a parked window goroutine, or to a new
// one when none is parked. It never blocks: a wake channel holds one
// Service, and only a parked goroutine's is in idle.
func (s *Service) handOff() {
	windowers.Lock()
	var wake chan *Service
	if k := len(windowers.idle); k > 0 {
		wake, windowers.idle = windowers.idle[k-1], windowers.idle[:k-1]
	}
	windowers.Unlock()
	if wake == nil {
		wake = make(chan *Service, 1)
		go finishWindows(wake)
	}
	wake <- s
}

// finishWindows is a window goroutine: it replays each window it is handed,
// publishing the window before alongside, sets the replay aside to publish,
// and parks again — back in idle before it unlocks the mutex closeWindow
// locked, so that the next close finds it parked and a steady state of
// windows starts no goroutine. As the caller of the sample phase's Loop it
// is that Loop's worker 0. The unlock is its last touch of the Service.
func finishWindows(wake chan *Service) {
	for s := range wake {
		s.sample()
		for _, inst := range s.instances {
			inst.out, inst.pending = inst.pending, inst.out
		}
		s.unpublished = true
		windowers.Lock()
		windowers.idle = append(windowers.idle, wake)
		windowers.Unlock()
		s.mu.Unlock()
	}
}

// lock takes the mutex for a reader: it waits for the window in flight, then
// publishes the last window replayed if no sample phase has yet, so the
// reader sees every closed window.
func (s *Service) lock() {
	s.mu.Lock()
	if s.unpublished {
		s.publish()
		s.unpublished = false
	}
}

// Ops returns the operation table.
func (s *Service) Ops() []Op { return s.ops }

// Classes returns the client-class table.
func (s *Service) Classes() []Class {
	out := make([]Class, len(s.classes))
	for i, cs := range s.classes {
		out[i] = cs.cfg
	}
	return out
}

// Served returns the number of completed requests for op index i, summed
// over classes.
func (s *Service) Served(i int) int64 {
	s.lock()
	defer s.mu.Unlock()
	var n int64
	for ci := range s.classes {
		n += s.served[ci][i]
	}
	return n
}

// TotalServed returns the number of completed requests across all classes
// and operations.
func (s *Service) TotalServed() int64 {
	s.lock()
	defer s.mu.Unlock()
	var n int64
	for ci := range s.classes {
		for oi := range s.ops {
			n += s.served[ci][oi]
		}
	}
	return n
}

// LatencyQuantileUS returns the q-th latency quantile (q in [0,1]) of op
// index i, in microseconds, over all classes.
func (s *Service) LatencyQuantileUS(i int, q float64) float64 {
	s.lock()
	defer s.mu.Unlock()
	return s.mergedLocked(-1, i).Quantile(q)
}

// SLOMissRate returns the fraction of op i's requests that exceeded their
// latency objective (0 when the op has no SLO or nothing was served).
func (s *Service) SLOMissRate(i int) float64 {
	s.lock()
	defer s.mu.Unlock()
	var served, missed int64
	for ci := range s.classes {
		served += s.served[ci][i]
		missed += s.sloMisses[ci][i]
	}
	if served == 0 {
		return 0
	}
	return float64(missed) / float64(served)
}

// ClassServed returns class c's completed requests across all operations.
func (s *Service) ClassServed(c int) int64 {
	s.lock()
	defer s.mu.Unlock()
	var n int64
	for oi := range s.ops {
		n += s.served[c][oi]
	}
	return n
}

// ClassSLOMissRate returns the fraction of class c's requests that missed
// their objective.
func (s *Service) ClassSLOMissRate(c int) float64 {
	s.lock()
	defer s.mu.Unlock()
	var served, missed int64
	for oi := range s.ops {
		served += s.served[c][oi]
		missed += s.sloMisses[c][oi]
	}
	if served == 0 {
		return 0
	}
	return float64(missed) / float64(served)
}

// ClassLatencyQuantileUS returns class c's q-th latency quantile across all
// operations, in microseconds.
func (s *Service) ClassLatencyQuantileUS(c int, q float64) float64 {
	s.lock()
	defer s.mu.Unlock()
	return s.mergedLocked(c, -1).Quantile(q)
}

// AggregateLatencyQuantileUS returns the q-th latency quantile over every
// class and operation, in microseconds.
func (s *Service) AggregateLatencyQuantileUS(q float64) float64 {
	s.lock()
	defer s.mu.Unlock()
	return s.mergedLocked(-1, -1).Quantile(q)
}

// TotalSLOMissRate returns the miss fraction over every class and operation.
func (s *Service) TotalSLOMissRate() float64 {
	s.lock()
	defer s.mu.Unlock()
	var served, missed int64
	for ci := range s.classes {
		for oi := range s.ops {
			served += s.served[ci][oi]
			missed += s.sloMisses[ci][oi]
		}
	}
	if served == 0 {
		return 0
	}
	return float64(missed) / float64(served)
}

// mergedLocked returns the latency population for (class c, op i), merging
// across classes when c < 0 and across ops when i < 0. When the selection is
// a single histogram it is returned directly; merges allocate, which is fine
// at read/scrape frequency. Callers hold s.mu.
func (s *Service) mergedLocked(c, i int) *stats.LogHistogram {
	if c >= 0 && i >= 0 {
		return s.hist[c][i]
	}
	if c < 0 && len(s.classes) == 1 && i >= 0 {
		return s.hist[0][i]
	}
	out := s.hist[0][0].Fresh()
	for ci := range s.classes {
		if c >= 0 && ci != c {
			continue
		}
		for oi := range s.ops {
			if i >= 0 && oi != i {
				continue
			}
			if err := out.Merge(s.hist[ci][oi]); err != nil {
				panic(err) // identical layouts by construction
			}
		}
	}
	return out
}

// closeWindow composes the window's class rates, sets the window's
// frequency histories aside for its replay and starts each instance's next
// history at the current speed, hands the window to the window goroutine,
// and advances the MMPP phases.
//
// The replay is a sample phase, which may run on several goroutines and
// touches only the instances, then a publish phase that records every
// arrival in instance order and then arrival order: each histogram, its
// float sum included, and each counter sees the sequence a serial replay
// gives it, so the accounting is the same at any GOMAXPROCS. The sample
// phase runs on the window goroutine while the engine simulates the next
// window: a replay reads only its instance's stream, queue horizon, buffer
// and closed history, and the window's rates, which only the next close
// writes, after it has waited for this window's replay. The service is
// open-loop, so nothing the engine does depends on a replay's result. The
// publish phase runs within the next window's sample phase, or in the first
// reader to come before it.
func (s *Service) closeWindow(now sim.Time) {
	start := s.winStart
	s.winStart = now
	windowMS := float64(now.Sub(start))

	s.mu.Lock() // waits for the replay in flight
	total := 0.0
	for ci, cs := range s.classes {
		cs.rateRPS = cs.windowRate(start)
		total += cs.rateRPS
		s.cumShare[ci] = total
	}
	s.windowIdx++
	for _, inst := range s.instances {
		inst.closed, inst.segs = inst.segs, inst.closed[:0]
		inst.segs = append(inst.segs, speedSeg{at: now, speed: inst.server.Speed()})
	}
	for _, cs := range s.classes {
		cs.advancePhase()
	}
	if !(total > 0) {
		s.mu.Unlock()
		return
	}
	for ci := range s.cumShare {
		s.cumShare[ci] /= total
	}
	s.win = window{start: float64(start), ms: windowMS, perInstPerMS: total / 1000 / float64(len(s.instances))}
	s.handOff() // the window goroutine unlocks s.mu
}

// sample is the window's sample phase. An instance's replay touches only the
// instance — its RNG, queue horizon, closed frequency history and arrival
// buffer — and reads the window's rates, the op table and the latency
// layout, none of which changes during the phase, so replayWidth goroutines
// replay blocks of instances. The loop's index 0 is the publish phase of the
// window before, which reads only the pending buffers and writes only the
// accounting, so it runs beside the replays.
func (s *Service) sample() {
	// Sized here, a buffer never grows on a helper: a Poisson count stays
	// within eight standard deviations of its mean. A quarter's headroom
	// keeps a slowly rising rate from resizing every window.
	perInst := s.win.perInstPerMS * s.win.ms
	need := int(perInst + 8*math.Sqrt(perInst) + 16)
	for _, inst := range s.instances {
		if cap(inst.out) < need {
			inst.out = make([]arrival, 0, need+need/4)
		}
	}
	s.replays.Run(s.replayWidth(), 1+(len(s.instances)+blockInstances-1)/blockInstances)
}

// replayWidth is the sample phase's goroutine count for the window in win:
// min(GOMAXPROCS, expected arrivals/shareArrivals), and one — the caller,
// inline — below two shares.
func (s *Service) replayWidth() int {
	expected := s.win.perInstPerMS * s.win.ms * float64(len(s.instances))
	return max(1, int(min(float64(runtime.GOMAXPROCS(0)), expected/shareArrivals)))
}

// replayBlock is index b of the sample phase's loop: index 0 publishes the
// window before when no reader has, and index b > 0 replays block b−1 of
// instances, each into its own buffer.
func (s *Service) replayBlock(b int) {
	if b == 0 {
		if s.unpublished {
			s.publish()
		}
		return
	}
	b--
	for _, inst := range s.instances[b*blockInstances : min((b+1)*blockInstances, len(s.instances))] {
		s.replay(inst)
	}
}

// publish is the window's publish phase: every pending arrival, in instance
// order and then arrival order, into its histogram and counters, all three
// at the arrival's flat index. The bucket and the SLO verdict come computed;
// what stays serial is the counting and each histogram's float sum, whose
// value depends on the order of its terms.
func (s *Service) publish() {
	n := len(s.ops)
	hist, served, misses := s.flatHist, s.flatServed, s.flatMisses
	for _, inst := range s.instances {
		for _, a := range inst.pending {
			j := int(a.class)*n + int(a.op)
			hist[j].AddBucket(a.latencyUS, int(a.bucket))
			served[j]++
			misses[j] += int64(a.miss)
		}
	}
}

// replay streams the window's arrivals in time order — exponential
// inter-arrival gaps at the composed rate, no per-request allocation — and
// pushes them through the instance's single-threaded FCFS queue, writing each
// one's latency, its bucket and SLO verdict, class and operation to
// inst.out. Each arrival picks its class proportionally to the classes' rate
// shares, then an operation uniformly. Within the window the frequency is
// piecewise constant per the recorded segments; work started near the window
// edge is finished at the final segment's speed (exact unless the frequency
// changes again immediately, a negligible horizon at 10 s windows vs 1 s
// capping).
//
// A request's class pick, queue start (the builtin max, exact because
// neither operand is NaN) and SLO verdict (a compare with the op's
// objective, +Inf for none) compile to conditional moves, not branches, and
// the op pick's bound checks fail but for an x·n that rounds across an
// integer.
func (s *Service) replay(inst *instance) {
	w := &s.win
	busy := inst.busyUntilMS
	if busy < w.start {
		busy = w.start
	}
	state := inst.rng
	single := len(s.classes) == 1
	classCum := s.cumShare[:len(s.cumShare)-1]
	fn := float64(len(s.ops))
	bound, slo := s.opBound, s.sloUS
	layout := s.flatHist[0] // every hist shares its bucket layout
	segs := inst.closed
	// With one segment, finish reduces to its first iteration: the start
	// held at the segment's, plus the op's work divided by the segment's
	// speed. That quotient is the same for every request of an op, so it is
	// taken once per op, with the same two divisions finish's caller and
	// finish make.
	seg0At := float64(segs[0].at)
	var seg0MS [maxOps]float64
	if len(segs) == 1 {
		speed := segs[0].speed
		if !(speed > minSegSpeed) { // also catches NaN
			speed = minSegSpeed
		}
		for k := range s.ops {
			seg0MS[k] = s.ops[k].BaseServiceUS / 1000 / speed
		}
	}
	out := inst.out[:0]
	for t := 0.0; ; {
		gap, ok := sim.ExpFast(&state)
		if !ok {
			gap = sim.ExpTail(&state)
		}
		if t += gap / w.perInstPerMS; !(t < w.ms) {
			break
		}
		at := w.start + t
		ci := 0
		if !single {
			ci = pickClass(sim.Float64(&state), classCum)
		}
		op := pickOp(sim.Float64(&state), fn, bound)
		startSvc := max(at, busy)
		if len(segs) == 1 {
			busy = max(startSvc, seg0At) + seg0MS[uint8(op)]
		} else {
			busy = finish(segs, startSvc, s.ops[op].BaseServiceUS/1000)
		}
		lat := (busy - at) * 1000
		var miss uint8
		if lat > slo[op] {
			miss = 1
		}
		out = append(out, arrival{
			latencyUS: lat,
			bucket:    int32(layout.Bucket(lat)),
			class:     uint16(ci),
			op:        uint8(op),
			miss:      miss,
		})
	}
	inst.rng = state
	inst.busyUntilMS = busy
	inst.out = out
}

// pickClass returns the class of a draw x in [0, 1) from the first n−1
// cumulative rate shares: the count of them at or below x. The shares never
// decrease, so that is the first class whose share exceeds x, or the last
// class when none does.
func pickClass(x float64, cum []float64) int {
	ci := 0
	for _, c := range cum {
		if x >= c {
			ci++
		}
	}
	return ci
}

// opBounds is the op pick's table for n ops: float64(k)/float64(n) for k
// from 0 to n. A draw x is at most 1−2^−53, so x·n ≤ n − n·2^−53, which
// rounds below n: int(x·n)+1 never passes the last entry.
func opBounds(n int) []float64 {
	bound := make([]float64, n+1)
	for k := range bound {
		bound[k] = float64(k) / float64(n)
	}
	return bound
}

// pickOp returns the op of a draw x in [0, 1), picked uniformly from n ops,
// given fn = float64(n) and bound = opBounds(n): the first op k whose
// cumulative weight (k+1)/n exceeds x. x·n lands within one step of it, and the bounds on either side
// of x·n's integer part settle which.
func pickOp(x, fn float64, bound []float64) int {
	k := int(x * fn)
	op := k
	if x < bound[k] {
		op--
	}
	if x >= bound[k+1] {
		op++
	}
	return op
}

// minSegSpeed floors the frequency factor used in latency accounting.
// Cluster speeds are normally ≥ 0.1 (the ApplyCap hardware floor), but a
// zero, negative or NaN segment — a stopped host, a corrupted snapshot —
// would otherwise make span×speed = ∞·0 = NaN on the open-ended final
// segment, poisoning busyUntilMS and every later latency in the window.
const minSegSpeed = 1e-6

// finish consumes workMS of full-speed work starting at startMS, walking the
// piecewise-constant frequency segments.
func finish(segs []speedSeg, startMS, workMS float64) float64 {
	// Locate the active segment (segments are few; linear scan from the end
	// is cheapest because requests arrive in time order).
	i := len(segs) - 1
	for i > 0 && float64(segs[i].at) > startMS {
		i--
	}
	t := startMS
	for ; i < len(segs); i++ {
		speed := segs[i].speed
		if !(speed > minSegSpeed) { // also catches NaN
			speed = minSegSpeed
		}
		segEnd := math.Inf(1)
		if i+1 < len(segs) {
			segEnd = float64(segs[i+1].at)
		}
		if t < float64(segs[i].at) {
			t = float64(segs[i].at)
		}
		span := segEnd - t
		if span*speed >= workMS {
			return t + workMS/speed
		}
		workMS -= span * speed
		t = segEnd
	}
	// Unreachable: the last segment extends to infinity.
	return t
}
