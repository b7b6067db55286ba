package main

import (
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// svcInstance is svc_slo: one call of the Fig 11 experiment at scale, both
// regimes back to back. The call builds, warms up and measures inside, and
// exposes no seam between them.
type svcInstance struct {
	p   params
	tr  *tracer
	cfg experiment.Fig11ScaleConfig
	res *experiment.Fig11ScaleResult
}

func svcConfig(p params, seed uint64) experiment.Fig11ScaleConfig {
	cfg := experiment.DefaultFig11Scale()
	// Hold the per-instance request rate of the full-size experiment, as
	// QuickFig11Scale does, whatever the fleet is cut to.
	perInstance := cfg.RPSPerUser * float64(cfg.ServiceUsers) / float64(cfg.ServiceRows*cfg.ServicePerRow)
	cfg.Seed = seed
	cfg.Rows, cfg.RowServers, cfg.ServiceRows, cfg.ServiceUsers = p.Rows, p.RowServers, p.ServiceRows, p.ServiceUsers
	cfg.ServicePerRow = p.RowServers / 10
	cfg.RPSPerUser = perInstance * float64(cfg.ServiceRows*cfg.ServicePerRow) / float64(cfg.ServiceUsers)
	cfg.Warmup = sim.Duration(p.Warmup) * sim.Minute
	cfg.Measure = sim.Duration(p.Window) * sim.Minute
	cfg.Parallel = 1
	return cfg
}

// setupSvc times what the window call spends before it measures: the same
// call with the measure phase cut to one minute. That is build plus warm-up
// for both regimes, the only set-up figure available from outside.
func setupSvc(p params, seed uint64, tr *tracer) (instance, error) {
	cfg := svcConfig(p, seed)
	probe := cfg
	probe.Measure = sim.Minute
	if _, err := experiment.RunFig11Scale(probe); err != nil {
		return nil, err
	}
	return &svcInstance{p: p, tr: tr, cfg: cfg}, nil
}

func (in *svcInstance) window() error {
	t0 := time.Now()
	res, err := experiment.RunFig11Scale(in.cfg)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	in.res = res
	in.tr.add(layerCall, d)
	// One call, so one sample: the mean cost of a simulated minute.
	in.tr.lap(d / time.Duration(2*(in.p.Warmup+in.p.Window)))
	return nil
}

func (in *svcInstance) collect(r *record) {
	res := in.res
	r.SimMin = float64(2 * (in.p.Warmup + in.p.Window))
	r.Ops = res.ServedCapping + res.ServedAmpere
	// Row power cannot be read through this call. The violation it does
	// report is the service's own: requests over their latency SLO, as a
	// share of requests, with Ampere in control.
	r.set("violation_frac", res.SLOMissAmpere)

	r.print("served", res.ServedCapping, res.ServedAmpere, res.FrozenServerMinutes)
	r.print("tail", res.AggP999CappingUS, res.AggP999AmpereUS, res.SLOMissCapping, res.SLOMissAmpere)
	r.print("capped", res.CappedServerFracCapping, res.CappedServerFracAmpere)

	r.check("same_traffic", res.ServedCapping == res.ServedAmpere && res.ServedAmpere > 0,
		"served %d under capping, %d under Ampere", res.ServedCapping, res.ServedAmpere)
	r.check("ampere_protects_tail", res.AggP999CappingUS > res.AggP999AmpereUS,
		"p999 %.0f us under capping, %.0f us under Ampere", res.AggP999CappingUS, res.AggP999AmpereUS)

	r.set("service.requests", float64(r.Ops))
	r.set("service.p999_capping_us", res.AggP999CappingUS)
	r.set("service.p999_ampere_us", res.AggP999AmpereUS)
	r.set("service.slo_miss_capping", res.SLOMissCapping)
	r.set("service.slo_miss_ampere", res.SLOMissAmpere)
	r.set("capping.capped_frac_capping", res.CappedServerFracCapping)
	r.set("capping.capped_frac_ampere", res.CappedServerFracAmpere)
	r.set("core.frozen_server_min", float64(res.FrozenServerMinutes))
}
