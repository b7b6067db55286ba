package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// The tracer times the calls the benchmark makes across each layer boundary.
// It lives entirely in the benchmark: the wrappers below sit on seams the
// layers already expose (the generator's sink, monitor.Store,
// core.FreezeAPI), and the sweep and step events are the benchmark's own.
// Nothing wraps the controller's PowerReader: the controller type-asserts
// the monitor's snapshot and range fast paths, and a wrapper would time a
// slower program than the one that ships.

type layer int

const (
	layerSubmit   layer = iota // scheduler.Submit, called by the generator
	layerSweep                 // monitor.Sweep, appends included
	layerAppend                // tsdb.Append, called by the sweep
	layerStep                  // core.Step, freeze calls included
	layerFreeze                // scheduler.Freeze, called by the step
	layerUnfreeze              // scheduler.Unfreeze, called by the step
	layerEpoch                 // federate.Advance(1)
	layerCall                  // experiment.RunFig11Scale
	numLayers
)

// spanName is the span a layer's calls are recorded under, and spanParent
// the span that causes them: a layer's self time is its busy time minus its
// children's.
var (
	spanName = [numLayers]string{"scheduler.submit", "monitor.sweep", "tsdb.append",
		"core.step", "scheduler.freeze", "scheduler.unfreeze", "federate.epoch", "experiment.fig11scale"}
	spanParent = [numLayers]string{"interval", "interval", "monitor.sweep",
		"interval", "core.step", "core.step", "interval", "interval"}
)

// span is one layer's work inside one bucket of control intervals. Spans of
// one bucket share its id; "interval" spans are the buckets themselves and
// their parent is the window.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	ID     int     `json:"id"`
	StartS float64 `json:"start_s"` // bucket bounds, from window start
	EndS   float64 `json:"end_s"`
	BusyS  float64 `json:"busy_s"` // summed duration of the layer's calls
	Count  int64   `json:"count"`
}

type tracer struct {
	on bool
	// every is the number of control intervals one bucket covers, so a
	// week of minutes becomes a few hundred spans and not ten thousand.
	every int

	busy  [numLayers]time.Duration
	count [numLayers]int64
	max   [numLayers]time.Duration

	start     time.Time
	laps      []time.Duration // one per control interval
	lastMark  time.Duration
	bucketAt  time.Duration
	bucketN   int
	lastBusy  [numLayers]time.Duration
	lastCount [numLayers]int64
	spans     []span
}

// begin starts the window: whatever warm-up recorded is dropped.
func (t *tracer) begin(intervals int) {
	*t = tracer{on: t.on, every: t.every, start: time.Now(), laps: make([]time.Duration, 0, intervals)}
}

func (t *tracer) add(l layer, d time.Duration) {
	t.busy[l] += d
	t.count[l]++
	if d > t.max[l] {
		t.max[l] = d
	}
}

// mark closes a control interval that began where the last one ended: the
// simulated workloads call it from their per-minute sweep event. It runs in
// untraced runs too, because the interval lengths are the loop_p50_ms and
// loop_p95_ms samples.
func (t *tracer) mark() {
	now := time.Since(t.start)
	t.lap(now - t.lastMark)
	t.lastMark = now
}

// lap records a control interval the caller timed itself.
func (t *tracer) lap(d time.Duration) {
	t.laps = append(t.laps, d)
	if t.on && len(t.laps)%t.every == 0 {
		t.flush(time.Since(t.start))
	}
}

func (t *tracer) flush(now time.Duration) {
	id := t.bucketN
	from, to := t.bucketAt.Seconds(), now.Seconds()
	t.spans = append(t.spans, span{Name: "interval", Parent: "window", ID: id, StartS: from, EndS: to,
		BusyS: to - from, Count: int64(len(t.laps) - id*t.every)})
	for l := layer(0); l < numLayers; l++ {
		if n := t.count[l] - t.lastCount[l]; n > 0 {
			t.spans = append(t.spans, span{Name: spanName[l], Parent: spanParent[l], ID: id,
				StartS: from, EndS: to, BusyS: (t.busy[l] - t.lastBusy[l]).Seconds(), Count: n})
		}
	}
	t.lastBusy, t.lastCount = t.busy, t.count
	t.bucketAt = now
	t.bucketN++
}

// end closes the window and returns the interval lengths in milliseconds.
func (t *tracer) end() []float64 {
	if t.on && (len(t.laps) > t.bucketN*t.every || t.count != t.lastCount) {
		t.flush(time.Since(t.start))
	}
	ms := make([]float64, len(t.laps))
	for i, d := range t.laps {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return ms
}

func (t *tracer) seconds(l layer) float64 { return t.busy[l].Seconds() }

// timedSink is the generator's sink in a traced run.
func (t *tracer) timedSink(s *scheduler.Scheduler) workload.Sink {
	return func(j *workload.Job) {
		t0 := time.Now()
		s.Submit(j)
		t.add(layerSubmit, time.Since(t0))
	}
}

// timedStore is the monitor's store in a traced run. It counts every append
// and times every 64th, scaled up. Timing each one is not an option: the
// monitor appends a row's 21 series back to back, each a cache miss at fleet
// scale, and a clock read fences the pipeline, so the misses stop overlapping.
// With a timer on every append the traced ctl1m_loop ran 1.6 to 1.8 times
// slower than the untraced one. What is timed is therefore the latency of an
// append on its own, an upper bound on what it costs inside the burst.
type timedStore struct {
	db *tsdb.DB
	t  *tracer
	n  uint64
}

const appendSample = 64

func (s *timedStore) Append(name string, at sim.Time, v float64) error {
	if s.n++; s.n%appendSample != 0 {
		s.t.count[layerAppend]++
		return s.db.Append(name, at, v)
	}
	t0 := time.Now()
	err := s.db.Append(name, at, v)
	d := time.Since(t0)
	s.t.add(layerAppend, d)
	s.t.busy[layerAppend] += d * (appendSample - 1)
	return err
}

// timedFreeze is the controller's FreezeAPI in a traced run.
type timedFreeze struct {
	s *scheduler.Scheduler
	t *tracer
}

func (f timedFreeze) Freeze(id cluster.ServerID) error {
	t0 := time.Now()
	err := f.s.Freeze(id)
	f.t.add(layerFreeze, time.Since(t0))
	return err
}

func (f timedFreeze) Unfreeze(id cluster.ServerID) error {
	t0 := time.Now()
	err := f.s.Unfreeze(id)
	f.t.add(layerUnfreeze, time.Since(t0))
	return err
}

// timed wraps one of the benchmark's own periodic events.
func (t *tracer) timed(l layer, fn func(sim.Time)) func(sim.Time) {
	if !t.on {
		return fn
	}
	return func(now sim.Time) {
		t0 := time.Now()
		fn(now)
		t.add(l, time.Since(t0))
	}
}

// probeEngine times one push and one pop on an otherwise idle engine that
// holds depth pending events: the engine's share of sim.residual_s, which no
// seam outside the program can separate from job generation and completion.
func probeEngine(depth int) float64 {
	const rounds = 200_000
	depth = max(depth, 1)
	eng := sim.NewEngine()
	r := sim.NewRNG(1)
	nop := func(sim.Time) {}
	horizon := int64(100 * sim.Minute)
	for i := 0; i < depth; i++ {
		eng.At(sim.Time(r.Int63n(horizon)), "probe", nop)
	}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		eng.At(eng.Now().Add(sim.Duration(r.Int63n(horizon))), "probe", nop)
		eng.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / rounds
}
