package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"
)

// processStart is read before main runs, so the first set-up is timed from
// the start of the process as the issue defines setup_s.
var processStart = time.Now()

// instance is one built and warmed-up workload, ready to measure.
type instance interface {
	// window does the measured work, telling the tracer it was set up with
	// where every control interval ends.
	window() error
	// collect reads counters, runs the workload's correctness checks and
	// fills the per-layer numbers only it knows.
	collect(r *record)
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is everything one run measured. The driver reads the four-key
// summary on the last line; the suite and a traced run's parent read this.
type record struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
	Params   params    `json:"params"`
	SetupS   []float64 `json:"setup_s"`
	WindowS  float64   `json:"window_s"`
	// SimMin is the simulated minutes the window advanced; Ops and
	// OpsFailed are the operations the workload attempted and lost.
	SimMin      float64            `json:"sim_min"`
	Ops         int64              `json:"ops"`
	OpsFailed   int64              `json:"ops_failed"`
	Fingerprint string             `json:"fingerprint"`
	Checks      []check            `json:"checks"`
	Correct     bool               `json:"correct"`
	Metrics     map[string]value   `json:"metrics"`
	Spans       []span             `json:"spans,omitempty"`
	Error       string             `json:"error,omitempty"`
	got         map[string]float64 // metric values by name, both tables
	fp          []string           // fingerprint parts, in order
}

func (r *record) set(name string, v float64) { r.got[name] = v }

func (r *record) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// print adds deterministic simulated values to the run's fingerprint. Floats
// go in by their bits: the claim is bit-identical replay, not agreement to a
// few digits.
func (r *record) print(label string, vs ...any) {
	s := label
	for _, v := range vs {
		if f, ok := v.(float64); ok {
			s += fmt.Sprintf(" %016x", math.Float64bits(f))
		} else {
			s += fmt.Sprintf(" %v", v)
		}
	}
	r.fp = append(r.fp, s)
}

type rusage struct{ cpuS, peakRSSMB float64 }

func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return rusage{cpuS: tv(ru.Utime) + tv(ru.Stime), peakRSSMB: float64(ru.Maxrss) / 1024} // Linux reports KiB
}

// runOne builds, warms up and measures one workload in this process.
func runOne(w *spec, o options, ref *record) *record {
	p := w.params(o.scale, o.seconds)
	r := &record{Workload: w.name, Seed: o.seed, Trace: o.trace, Params: p, got: map[string]float64{}}
	tr := &tracer{on: o.trace, every: max(p.SpanEvery, 1)}

	fail := func(stage string, err error) *record {
		r.Error = fmt.Sprintf("%s: %v", stage, err)
		r.check(stage, false, "%v", err)
		r.finish(ref)
		return r
	}

	// Set-up is repeated where it is cheap and the median reported: a
	// sub-second set-up is otherwise at the mercy of one page-fault storm.
	// The reference run of a traced parent needs one.
	setups := p.Setups
	if o.ref || o.trace {
		setups = 1
	}
	var inst instance
	for i := 0; i < setups; i++ {
		t0 := processStart
		if i > 0 || ref != nil {
			inst = nil
			runtime.GC() // the discarded stack must not weigh on this one
			t0 = time.Now()
		}
		var err error
		if inst, err = w.setup(p, o.seed, tr); err != nil {
			return fail("setup", err)
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	}

	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ru0 := readRusage()
	tr.begin(p.Window)
	t0 := time.Now()
	err := inst.window()
	r.WindowS = time.Since(t0).Seconds()
	laps := tr.end()
	ru1 := readRusage()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fail("window", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)

	r.set("proc.cpu_s", ru1.cpuS-ru0.cpuS) // collect divides it by the window
	inst.collect(r)
	runtime.KeepAlive(inst)

	r.set("setup_s", median(r.SetupS))
	r.set("sim_min_per_s", r.SimMin/r.WindowS)
	r.set("loop_p50_ms", percentile(laps, 0.50))
	r.set("loop_p95_ms", percentile(laps, 0.95))
	r.set("req_per_s", float64(r.Ops)/r.WindowS)
	r.set("live_heap_mb", float64(m2.HeapAlloc)/(1<<20))

	ops := math.Max(float64(r.Ops), 1)
	r.set("proc.allocs_per_job", float64(m1.Mallocs-m0.Mallocs)/ops)
	r.set("proc.bytes_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/ops)
	r.set("proc.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.set("proc.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	r.set("proc.peak_rss_mb", ru1.peakRSSMB)

	// What no timed call covers: the engine's heap, job generation and
	// completion callbacks. Only a traced run can tell.
	if o.trace {
		covered := tr.seconds(layerSubmit) + tr.seconds(layerSweep) + tr.seconds(layerStep) +
			tr.seconds(layerEpoch) + tr.seconds(layerCall)
		r.set("sim.residual_s", r.WindowS-covered)
		if ev := r.got["sim.events"]; ev > 0 {
			r.set("sim.residual_ns_per_event", (r.WindowS-covered)*1e9/ev)
		}
		r.Spans = tr.spans
	}
	r.finish(ref)
	return r
}

// finish seals the record: fingerprint, the traced run's comparison with its
// untraced reference, and the verdict.
func (r *record) finish(ref *record) {
	h := fnv.New64a()
	for _, s := range r.fp {
		io.WriteString(h, s)
		io.WriteString(h, "\n")
	}
	r.Fingerprint = fmt.Sprintf("%016x", h.Sum64())

	if ref != nil {
		match := ref.Error == "" && ref.Fingerprint == r.Fingerprint
		r.check("trace.fingerprint_match", match, "traced %s, untraced reference %s %s",
			r.Fingerprint, ref.Fingerprint, ref.Error)
		if match {
			r.set("trace.fingerprint_match", 1)
		}
		if ref.WindowS > 0 {
			r.set("trace.overhead_frac", r.WindowS/ref.WindowS-1)
		}
	}

	r.Correct = true
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
			r.OpsFailed++
		}
	}
	if r.Ops < 1 {
		r.Ops = 1
	}
	// The record carries both tables, whatever the run traced: the suite
	// reads end-to-end numbers from untraced runs and layers from traced ones.
	r.Metrics = metricSet(append(append([]metricDef{}, endToEnd...), perLayer...), r.got)
}

// summary is the driver's last line.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// write prints the run for a reader, then the full record on one line for a
// parent process, then the driver's summary as the last line.
func (r *record) write(out io.Writer) error {
	fmt.Fprintf(out, "workload %s seed %d trace %v: window %.3f s, %d ops, %d failed, fingerprint %s\n",
		r.Workload, r.Seed, r.Trace, r.WindowS, r.Ops, r.OpsFailed, r.Fingerprint)
	defs, traced := driverTables()
	if r.Trace {
		defs = traced
	}
	shown := make(map[string]value, len(defs))
	for _, d := range defs {
		shown[d.Name] = r.Metrics[d.Name]
		fmt.Fprintf(out, "  %-30s %16.6g %s\n", d.Name, shown[d.Name].Value, d.Unit)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(out, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	last, err := json.Marshal(summary{Correct: r.Correct, Attempted: r.Ops, Failed: r.OpsFailed, Metrics: shown})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s%s\n%s\n", recordPrefix, full, last)
	return err
}

const recordPrefix = "record: "
