package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// stack is one engine's worth of layers, assembled from their constructors
// in the order a federate shard uses, so the benchmark owns every seam
// between them. rows4_week, dc100k_storm and ctl1m_loop are all one stack.
type stack struct {
	p     params
	tr    *tracer
	eng   *sim.Engine
	c     *cluster.Cluster
	sched *scheduler.Scheduler
	db    *tsdb.DB
	mon   *monitor.Monitor
	gen   *workload.Generator // nil on ctl1m_loop: nothing arrives
	ctl   *core.Controller

	rowBudgetW float64
	sweep      func(sim.Time) // monitor.Sweep, timed in a traced run
	step       func(sim.Time) // core.Step, timed in a traced run

	frozenMin  int64 // servers frozen after each step, summed
	strayMin   int64 // of those, on rows whose budget was never cut
	cutFrozen  int   // servers frozen on cut rows at the last cut interval
	budgetErrs []error
	warmupEnd  sim.Time
	sched0     scheduler.Stats
	ctl0       []core.DomainStats
	events0    uint64
	sweeps0    int64
	generated0 int64
	writeErrs0 int64
	maxFreezeN int
}

// meanJobMinutes is the truncated mean of the default job-duration
// distribution, by the same fixed-seed Monte Carlo the experiment and
// federate packages use to turn a power target into an arrival rate.
var meanJobMinutes = sync.OnceValue(func() float64 {
	r := sim.NewRNG(0x7ca11b)
	const n = 200000
	dd := workload.DefaultDurations()
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += dd.Sample(r).Minutes()
	}
	return sum / n
})

func rowSpec(rows, rowServers int) cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.ServersPerRack = 20
	spec.RacksPerRow = rowServers / spec.ServersPerRack
	spec.Rows = rows
	return spec
}

func buildStack(p params, seed uint64, tr *tracer) (*stack, error) {
	spec := rowSpec(p.Rows, p.RowServers)
	st := &stack{p: p, tr: tr, eng: sim.NewEngine()}
	var err error
	if st.c, err = cluster.New(spec, seed); err != nil {
		return nil, err
	}
	st.sched = scheduler.New(st.eng, st.c, seed, nil)
	st.db = tsdb.New(p.Retention)
	if st.mon, err = monitor.New(st.eng, st.c, st.db, monitor.DefaultConfig()); err != nil {
		return nil, err
	}
	if tr.on {
		st.mon.SetStore(&timedStore{db: st.db, t: tr})
	}

	if p.Target > 0 {
		sink := workload.Sink(st.sched.Submit)
		if tr.on {
			sink = tr.timedSink(st.sched)
		}
		perServer := workload.RateForPowerFraction(p.Target, spec.IdlePowerW, spec.RatedPowerW,
			spec.Containers, meanJobMinutes(), 1.0)
		product := workload.DefaultProduct("batch", perServer*float64(spec.TotalServers()))
		product.DiurnalAmplitude = p.Amplitude
		if p.Amplitude == 0 {
			// A flat load has no surges either: one product feeds the whole
			// fleet, so a surge would be a fleet-wide step and the run would
			// measure whether its seed drew one.
			product.SurgeProb = 0
		}
		if st.gen, err = workload.NewGenerator(st.eng, seed, []workload.Product{product},
			workload.DefaultDurations(), sink); err != nil {
			return nil, err
		}
	} else {
		for _, sv := range st.c.Servers {
			n := 4 + int(sv.ID)%8
			if err := st.sched.Reserve(sv.ID, n, float64(n)); err != nil {
				return nil, err
			}
		}
	}

	// Every product knob stays at its shipped default; Parallel is 0.
	ccfg := core.DefaultConfig()
	ccfg.EtWindow = p.EtWindow
	st.maxFreezeN = int(ccfg.MaxFreezeRatio * float64(p.RowServers))
	st.rowBudgetW = p.BudgetFrac * spec.RowRatedPowerW()
	domains := make([]core.Domain, p.Rows)
	for r := range domains {
		ids := make([]cluster.ServerID, 0, p.RowServers)
		for _, sv := range st.c.Row(r) {
			ids = append(ids, sv.ID)
		}
		domains[r] = core.Domain{Name: monitor.SeriesRow(r), Servers: ids,
			BudgetW: st.rowBudgetW, Kr: experiment.DefaultKr}
	}
	var api core.FreezeAPI = st.sched
	if tr.on {
		api = timedFreeze{st.sched, tr}
	}
	if st.ctl, err = core.New(st.eng, st.mon, api, ccfg, domains); err != nil {
		return nil, err
	}
	st.sweep = tr.timed(layerSweep, st.mon.Sweep)
	st.step = tr.timed(layerStep, st.ctl.Step)
	return st, nil
}

// violationFrac is the paper's safety figure: domain-minutes with power above
// budget over domain-minutes in the window.
func violationFrac(violations int64, domainMinutes int) float64 {
	return float64(violations) / float64(domainMinutes)
}

func cutRow(r int) bool { return r%4 == 0 }

// cut lowers every fourth row's budget by a fifth through the operator path;
// restore gives it back. The gridstorm cliff, at fleet scale.
func (st *stack) cut() {
	st.onCutRows(func(r int) error { return st.ctl.SetBudget(r, 0.8*st.rowBudgetW) })
}

func (st *stack) restore() { st.onCutRows(st.ctl.ClearBudget) }

func (st *stack) onCutRows(call func(row int) error) {
	for r := 0; r < st.p.Rows; r++ {
		if cutRow(r) {
			if err := call(r); err != nil {
				st.budgetErrs = append(st.budgetErrs, err)
			}
		}
	}
}

// afterStep integrates the frozen count. interval is the window interval
// just controlled, negative during warm-up.
func (st *stack) afterStep(interval int) {
	cut := 0
	for r := 0; r < st.p.Rows; r++ {
		n := st.ctl.FrozenCount(r)
		st.frozenMin += int64(n)
		if cutRow(r) {
			cut += n
		} else {
			st.strayMin += int64(n)
		}
	}
	if interval == st.p.RestoreAt-1 {
		st.cutFrozen = cut
	}
}

// baseline snapshots every counter at window start.
func (st *stack) baseline() {
	st.frozenMin, st.strayMin = 0, 0
	st.sched0 = st.sched.Stats()
	st.ctl0 = domainStats(st.ctl, st.p.Rows)
	st.events0 = st.eng.Steps()
	st.sweeps0 = st.mon.Sweeps()
	st.writeErrs0 = st.mon.WriteErrors()
	if st.gen != nil {
		st.generated0 = st.gen.Generated()
	}
}

// setupSim builds rows4_week and dc100k_storm: the benchmark schedules the
// monitor's sweep and then the controller's step itself, in place of their
// Start methods, and runs the warm-up.
func setupSim(p params, seed uint64, tr *tracer) (instance, error) {
	st, err := buildStack(p, seed, tr)
	if err != nil {
		return nil, err
	}
	st.warmupEnd = sim.Time(p.Warmup) * sim.Time(sim.Minute)
	interval := func(now sim.Time) int { return int((now-st.warmupEnd)/sim.Time(sim.Minute)) - 1 }
	st.eng.Every(0, sim.Minute, "bench-sweep", func(now sim.Time) {
		tr.mark()
		st.sweep(now)
	})
	st.gen.Start()
	st.eng.Every(0, sim.Minute, "bench-step", func(now sim.Time) {
		st.step(now)
		st.afterStep(interval(now))
	})
	if p.RestoreAt > 0 {
		at := func(i int) sim.Time { return st.warmupEnd + sim.Time(i+1)*sim.Time(sim.Minute) }
		st.eng.At(at(p.EventAt), "bench-budget-cut", func(sim.Time) { st.cut() })
		st.eng.At(at(p.RestoreAt), "bench-budget-restore", func(sim.Time) { st.restore() })
	}
	if err := st.eng.RunUntil(st.warmupEnd); err != nil {
		return nil, err
	}
	st.baseline()
	return simInstance{st}, nil
}

type simInstance struct{ *stack }

func (s simInstance) window() error {
	return s.eng.RunUntil(s.warmupEnd + sim.Time(s.p.Window)*sim.Time(sim.Minute))
}

// setupLoop builds ctl1m_loop: the same stack with a static allocation and
// no generator, driven by calling Sweep then Step once per simulated minute.
func setupLoop(p params, seed uint64, tr *tracer) (instance, error) {
	st, err := buildStack(p, seed, tr)
	if err != nil {
		return nil, err
	}
	in := loopInstance{st}
	// Warm-up runs past twice the retention, so every series ring has
	// wrapped, and past the first ticks, which grow the ranking scratch.
	for i := 0; i < p.Warmup; i++ {
		in.loop(i, -1)
	}
	st.baseline()
	return in, nil
}

type loopInstance struct{ *stack }

func (s loopInstance) loop(i, interval int) {
	t := sim.Time(i+1) * sim.Time(sim.Minute)
	t0 := time.Now()
	s.sweep(t)
	s.step(t)
	s.tr.lap(time.Since(t0))
	s.afterStep(interval)
}

func (s loopInstance) window() error {
	for i := 0; i < s.p.Window; i++ {
		switch i {
		case s.p.EventAt:
			s.cut()
		case s.p.RestoreAt:
			s.restore()
		}
		s.loop(s.p.Warmup+i, i)
	}
	return nil
}

// domainStats snapshots every domain's counters.
func domainStats(ctl *core.Controller, rows int) []core.DomainStats {
	stats := make([]core.DomainStats, rows)
	for r := range stats {
		stats[r] = ctl.Stats(r)
	}
	return stats
}

// control is what a controller did over the window, summed over its domains.
type control struct{ freezes, unfreezes, violations, apiErrs int64 }

func (c *control) add(ctl *core.Controller, was []core.DomainStats) {
	for r, d0 := range was {
		d := ctl.Stats(r)
		c.freezes += d.FreezeOps - d0.FreezeOps
		c.unfreezes += d.UnfreezeOps - d0.UnfreezeOps
		c.violations += d.Violations - d0.Violations
		c.apiErrs += d.APIErrors - d0.APIErrors
	}
}

// conserved checks that a scheduler lost no job since time zero: every
// placed job completed, runs or was killed, and every submitted job was
// placed, waits or was rejected.
func conserved(c *cluster.Cluster, s *scheduler.Scheduler) (bool, string) {
	st, running := s.Stats(), int64(0)
	for _, sv := range c.Servers {
		running += int64(s.RunningJobs(sv.ID))
	}
	ok := st.Placed == st.Completed+running+st.Killed && st.Submitted == st.Placed+int64(s.QueueLen())+st.Rejected
	return ok, fmt.Sprintf("submitted %d placed %d completed %d running %d killed %d queued-now %d rejected %d",
		st.Submitted, st.Placed, st.Completed, running, st.Killed, s.QueueLen(), st.Rejected)
}

func (st *stack) collect(r *record) {
	p, tr := st.p, st.tr
	static := st.gen == nil
	now, was := st.sched.Stats(), st.sched0
	r.SimMin = float64(p.Window)

	var ctl control
	ctl.add(st.ctl, st.ctl0)
	freezes, unfreezes, violations, apiErrs := ctl.freezes, ctl.unfreezes, ctl.violations, ctl.apiErrs
	frozenEnd := 0
	for i := 0; i < p.Rows; i++ {
		frozenEnd += st.ctl.FrozenCount(i)
	}
	writeErrs := st.mon.WriteErrors() - st.writeErrs0

	if static {
		r.Ops = freezes + unfreezes
	} else {
		r.Ops = now.Submitted - was.Submitted
	}
	r.OpsFailed = now.Rejected - was.Rejected + apiErrs + writeErrs + int64(len(st.budgetErrs))
	r.set("violation_frac", violationFrac(violations, p.Rows*p.Window))

	r.print("sched", now.Placed, now.Completed, now.Queued, now.Overflowed)
	r.print("control", freezes, unfreezes, st.frozenMin, violations, frozenEnd)
	for i := 0; i < p.Rows; i++ {
		w, _ := st.mon.RowPower(i)
		r.print("row", i, w)
	}

	r.check("no_errors", r.OpsFailed == 0, "%d rejected, %d freeze API errors, %d tsdb write errors, budget calls: %v",
		now.Rejected-was.Rejected, apiErrs, writeErrs, st.budgetErrs)
	ok, detail := conserved(st.c, st.sched)
	r.check("job_conservation", ok, "%s", detail)
	if p.RestoreAt > 0 {
		r.check("storm_acted", freezes > 0 && freezes == unfreezes && frozenEnd == 0,
			"%d freezes, %d unfreezes, %d still frozen at window end", freezes, unfreezes, frozenEnd)
	}
	if static {
		cutRows := (p.Rows + 3) / 4
		r.check("cut_rows_saturate", st.cutFrozen == cutRows*st.maxFreezeN,
			"%d frozen on %d cut rows before restore, want %d each", st.cutFrozen, cutRows, st.maxFreezeN)
		r.check("other_rows_never_freeze", st.strayMin == 0, "%d server-minutes frozen on rows at full budget", st.strayMin)
	}

	sweeps := float64(st.mon.Sweeps() - st.sweeps0)
	steps := float64(p.Window)
	r.set("sim.events", float64(st.eng.Steps()-st.events0))
	if st.gen != nil {
		r.set("workload.jobs", float64(st.gen.Generated()-st.generated0))
	}
	r.set("scheduler.placed", float64(now.Placed-was.Placed))
	r.set("scheduler.completed", float64(now.Completed-was.Completed))
	r.set("scheduler.queued", float64(now.Queued-was.Queued))
	r.set("scheduler.rejected", float64(now.Rejected-was.Rejected))
	r.set("scheduler.freeze_calls", float64(freezes))
	r.set("scheduler.unfreeze_calls", float64(unfreezes))
	r.set("monitor.sweeps", sweeps)
	r.set("tsdb.points", float64(st.db.PointCount()))
	r.set("core.steps", steps)
	r.set("core.frozen_server_min", float64(st.frozenMin))
	r.set("core.violation_min", float64(violations))
	if !tr.on {
		return
	}
	submit, sweep, app := tr.seconds(layerSubmit), tr.seconds(layerSweep), tr.seconds(layerAppend)
	step, api := tr.seconds(layerStep), tr.seconds(layerFreeze)+tr.seconds(layerUnfreeze)
	r.set("scheduler.submit_s", submit)
	if n := tr.count[layerSubmit]; n > 0 {
		r.set("scheduler.submit_ns_per_job", submit*1e9/float64(n))
	}
	r.set("scheduler.freeze_s", api)
	r.set("monitor.sweep_s", sweep-app)
	r.set("monitor.sweep_ns_per_server", (sweep-app)*1e9/(sweeps*float64(p.Servers)))
	r.set("tsdb.appends", float64(tr.count[layerAppend]))
	r.set("tsdb.append_s", app)
	r.set("tsdb.append_ns", app*1e9/float64(tr.count[layerAppend]))
	r.set("core.step_s", step-api)
	r.set("core.step_ms_mean", step*1e3/steps)
	r.set("core.step_ms_max", tr.max[layerStep].Seconds()*1e3)
	r.set("sim.probe_event_ns", probeEngine(st.eng.Pending()))

	// The read path experiments use: every series, whole history. Unbounded
	// on rows4_week, a 64-point ring elsewhere.
	points := 0
	t0 := time.Now()
	for _, name := range st.db.Names() {
		points += len(st.db.Values(name, 0, math.MaxInt64))
	}
	if points > 0 {
		r.set("tsdb.query_ns_per_point", float64(time.Since(t0).Nanoseconds())/float64(points))
	}
}
