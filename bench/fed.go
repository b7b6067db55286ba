package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/federate"
	"repro/internal/scheduler"
)

// fedInstance is fed8_sun: the federation as ampere-exp -exp fedscale builds
// it, advanced one epoch at a time so each epoch is a span.
type fedInstance struct {
	p        params
	tr       *tracer
	f        *federate.Federation
	sched0   []scheduler.Stats
	ctl0     [][]core.DomainStats
	events0  uint64
	shardErr []federate.ShardError
}

func setupFed(p params, seed uint64, tr *tracer) (instance, error) {
	dcs, err := federate.Family("follow-the-sun", p.DCs, p.RowsPerDC)
	if err != nil {
		return nil, err
	}
	f, err := federate.New(federate.Config{Seed: seed, DCs: dcs,
		Workers: runtime.GOMAXPROCS(0), Retention: p.Retention})
	if err != nil {
		return nil, err
	}
	in := &fedInstance{p: p, tr: tr, f: f}
	errs, err := f.Advance(p.Warmup)
	if err != nil {
		return nil, err
	}
	in.shardErr = errs
	// The first tick grows every domain's scratch; it belongs to warm-up.
	f.ResetTickStats()
	for _, dc := range f.DCs {
		in.sched0 = append(in.sched0, dc.Sched.Stats())
		in.ctl0 = append(in.ctl0, domainStats(dc.Ctl, dc.Spec.Rows))
		in.events0 += dc.Eng.Steps()
	}
	return in, nil
}

func (in *fedInstance) window() error {
	for e := 0; e < in.p.Window; e++ {
		t0 := time.Now()
		errs, err := in.f.Advance(1)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		in.shardErr = append(in.shardErr, errs...)
		in.tr.add(layerEpoch, d)
		in.tr.lap(d)
	}
	return nil
}

func (in *fedInstance) collect(r *record) {
	p, f, tr := in.p, in.f, in.tr
	r.SimMin = float64(p.Window)

	var submitted, rejected, placed, completed, queued int64
	var ctl control
	var frozenMin int64
	var events uint64
	var base, alloc float64
	moves, rows := 0, 0
	var lost []string
	for i, dc := range f.DCs {
		now, was := dc.Sched.Stats(), in.sched0[i]
		submitted += now.Submitted - was.Submitted
		rejected += now.Rejected - was.Rejected
		placed += now.Placed - was.Placed
		completed += now.Completed - was.Completed
		queued += now.Queued - was.Queued
		if ok, detail := conserved(dc.Cluster, dc.Sched); !ok {
			lost = append(lost, dc.Name+": "+detail)
		}
		ctl.add(dc.Ctl, in.ctl0[i])
		rows += dc.Spec.Rows
		events += dc.Eng.Steps()
		base += f.BaseBudget(i)
		alloc += f.Allocation(i)
		telem := f.Telemetry(i)
		for e := max(p.Warmup, 1); e < len(telem); e++ {
			frozenMin += int64(telem[e].Frozen)
			if telem[e].BudgetW != telem[e-1].BudgetW {
				moves++
			}
		}
	}

	r.Ops = submitted
	r.OpsFailed = rejected + ctl.apiErrs + int64(len(in.shardErr))
	r.set("violation_frac", violationFrac(ctl.violations, rows*p.Window))
	r.print("federation", f.Fingerprint())
	r.print("control", ctl.freezes, ctl.unfreezes, frozenMin, ctl.violations)

	r.check("no_errors", r.OpsFailed == 0, "%d rejected, %d freeze API errors, shard errors: %v",
		rejected, ctl.apiErrs, in.shardErr)
	r.check("job_conservation", len(lost) == 0, "%v", lost)
	// The coordinator moves headroom between DCs; it never mints any.
	r.check("budget_pool_conserved", alloc <= base*(1+1e-9) && alloc >= 0.6*base,
		"allocations sum to %.1f W of a %.1f W pool", alloc, base)

	r.set("sim.events", float64(events-in.events0))
	r.set("workload.jobs", float64(submitted))
	r.set("scheduler.placed", float64(placed))
	r.set("scheduler.completed", float64(completed))
	r.set("scheduler.queued", float64(queued))
	r.set("scheduler.rejected", float64(rejected))
	r.set("scheduler.freeze_calls", float64(ctl.freezes))
	r.set("scheduler.unfreeze_calls", float64(ctl.unfreezes))
	r.set("monitor.sweeps", float64(p.Window*len(f.DCs)))
	r.set("core.steps", float64(p.Window*len(f.DCs)))
	r.set("core.frozen_server_min", float64(frozenMin))
	r.set("core.violation_min", float64(ctl.violations))
	points := 0
	for _, dc := range f.DCs {
		points += dc.DB.PointCount()
	}
	r.set("tsdb.points", float64(points))

	r.set("federate.epochs", float64(f.Epochs()-p.Warmup))
	r.set("federate.budget_moves", float64(moves))
	_, mean, max := f.TickStats()
	r.set("federate.tick_ms_mean", mean.Seconds()*1e3)
	r.set("federate.tick_ms_max", max.Seconds()*1e3)
	r.set("federate.cpu_per_wall", r.got["proc.cpu_s"]/r.WindowS)
	epochs := make([]float64, len(tr.laps))
	for i, d := range tr.laps {
		epochs[i] = d.Seconds() * 1e3
	}
	r.set("federate.epoch_ms_p50", percentile(epochs, 0.50))
	r.set("federate.epoch_ms_p90", percentile(epochs, 0.90))
}
