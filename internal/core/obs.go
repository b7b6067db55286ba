package core

import (
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// instrumentation is the controller's optional observability wiring. All
// fields may be nil independently: a registry without a journal meters the
// hot path, a journal without a registry records decisions only.
type instrumentation struct {
	journal     *obs.Journal
	tickDur     *obs.Histogram
	apiFreeze   *obs.Histogram
	apiUnfreeze *obs.Histogram
}

// Instrument registers the controller's metrics on reg and appends one
// decision event per domain per tick to journal. Either argument may be
// nil. Call it once, before Start; the uninstrumented controller pays
// nothing.
//
// Metric families (all labeled by domain unless noted):
//
//	ampere_tick_duration_seconds        summary, unlabeled, whole Step
//	ampere_api_call_duration_seconds    summary, labeled by op
//	ampere_ticks_total                  counter
//	ampere_controlled_ticks_total       counter
//	ampere_violations_total             counter
//	ampere_freeze_ops_total             counter
//	ampere_unfreeze_ops_total           counter
//	ampere_api_errors_total             counter
//	ampere_retries_total                counter
//	ampere_skipped_no_data_total        counter
//	ampere_stale_ticks_total            counter
//	ampere_invalid_samples_total        counter
//	ampere_degraded_ticks_total         counter
//	ampere_failsafe_ticks_total         counter
//	ampere_failsafe_entries_total       counter
//	ampere_recoveries_total             counter
//	ampere_frozen_servers               gauge
//	ampere_freeze_ratio                 gauge
//	ampere_power_norm                   gauge
//	ampere_budget_w                     gauge (effective enforced budget, watts)
//	ampere_budget_target_w              gauge (budget target being ramped toward)
//	ampere_health_state                 gauge (0 ok, 1 degraded, 2 failsafe, 3 no-data)
func (c *Controller) Instrument(reg *obs.Registry, journal *obs.Journal) {
	if reg == nil && journal == nil {
		return
	}
	ins := &instrumentation{journal: journal}
	if reg != nil {
		ins.tickDur = reg.Histogram("ampere_tick_duration_seconds",
			"Wall-clock duration of one controller Step across all domains.",
			1e-7, 10, 400)
		apiDur := reg.HistogramVec("ampere_api_call_duration_seconds",
			"Wall-clock duration of scheduler freeze/unfreeze calls.",
			1e-8, 10, 400, "op")
		ins.apiFreeze = apiDur.With("freeze")
		ins.apiUnfreeze = apiDur.With("unfreeze")
		c.registerCollectors(reg)
	}
	c.mu.Lock()
	c.ins = ins
	c.mu.Unlock()
}

// registerCollectors exports the per-domain counters the controller already
// maintains in DomainStats. Collectors read a live snapshot under the
// controller's read lock at scrape time, so the numbers on /metrics and the
// operator JSON API can never drift apart.
func (c *Controller) registerCollectors(reg *obs.Registry) {
	counter := func(name, help string, get func(DomainStats) int64) {
		reg.RegisterCollector(name, help, obs.TypeCounter, []string{"domain"}, func(emit obs.Emit) {
			c.mu.RLock()
			defer c.mu.RUnlock()
			for _, ds := range c.domains {
				emit([]string{ds.d.Name}, float64(get(ds.stats)))
			}
		})
	}
	gauge := func(name, help string, get func(ds *domainState) float64) {
		reg.RegisterCollector(name, help, obs.TypeGauge, []string{"domain"}, func(emit obs.Emit) {
			c.mu.RLock()
			defer c.mu.RUnlock()
			for _, ds := range c.domains {
				emit([]string{ds.d.Name}, get(ds))
			}
		})
	}

	counter("ampere_ticks_total", "Control ticks executed.",
		func(s DomainStats) int64 { return s.Ticks })
	counter("ampere_controlled_ticks_total", "Ticks with a non-zero freeze target.",
		func(s DomainStats) int64 { return s.ControlledTicks })
	counter("ampere_violations_total", "Monitor samples with power strictly above budget.",
		func(s DomainStats) int64 { return s.Violations })
	counter("ampere_freeze_ops_total", "Successful freeze operations.",
		func(s DomainStats) int64 { return s.FreezeOps })
	counter("ampere_unfreeze_ops_total", "Successful unfreeze operations.",
		func(s DomainStats) int64 { return s.UnfreezeOps })
	counter("ampere_api_errors_total", "Failed scheduler freeze/unfreeze calls.",
		func(s DomainStats) int64 { return s.APIErrors })
	counter("ampere_retries_total", "Retried freeze/unfreeze calls after transient failures.",
		func(s DomainStats) int64 { return s.Retries })
	counter("ampere_skipped_no_data_total", "Ticks skipped with no sample and no fallback.",
		func(s DomainStats) int64 { return s.SkippedNoData })
	counter("ampere_stale_ticks_total", "Ticks served by a stale or missing sample.",
		func(s DomainStats) int64 { return s.StaleTicks })
	counter("ampere_invalid_samples_total", "Readings rejected as corrupt.",
		func(s DomainStats) int64 { return s.InvalidSamples })
	counter("ampere_degraded_ticks_total", "Ticks flown on last-known-good data.",
		func(s DomainStats) int64 { return s.DegradedTicks })
	counter("ampere_failsafe_ticks_total", "Ticks spent holding the frozen set in fail-safe mode.",
		func(s DomainStats) int64 { return s.FailSafeTicks })
	counter("ampere_failsafe_entries_total", "Transitions into fail-safe mode.",
		func(s DomainStats) int64 { return s.FailSafeEntries })
	counter("ampere_recoveries_total", "Degraded-to-healthy transitions.",
		func(s DomainStats) int64 { return s.Recoveries })

	gauge("ampere_frozen_servers", "Servers currently frozen.",
		func(ds *domainState) float64 { return float64(ds.frozen.len()) })
	gauge("ampere_freeze_ratio", "Current realized freezing ratio u.",
		func(ds *domainState) float64 {
			return float64(ds.frozen.len()) / float64(len(ds.d.Servers))
		})
	gauge("ampere_power_norm", "Last observed power normalized to the budget.",
		func(ds *domainState) float64 { return sanitize(ds.lastP) })
	gauge("ampere_budget_w", "Currently enforced (effective) power budget in watts.",
		func(ds *domainState) float64 { return sanitize(ds.budget) })
	gauge("ampere_budget_target_w", "Budget target the effective budget is ramping toward.",
		func(ds *domainState) float64 { return sanitize(ds.budgetTargetW) })
	gauge("ampere_health_state", "Domain health: 0 ok, 1 degraded, 2 failsafe, 3 no-data.",
		func(ds *domainState) float64 { return healthCode(ds.health()) })
}

// health classifies the domain's current state (see the Health* constants).
func (ds *domainState) health() string {
	switch {
	case !ds.haveGood:
		return HealthNoData
	case ds.failSafe:
		return HealthFailSafe
	case ds.dark > 0:
		return HealthDegraded
	}
	return HealthOK
}

// healthCode maps a health state to its gauge encoding, worst highest.
func healthCode(s string) float64 {
	switch s {
	case HealthDegraded:
		return 1
	case HealthFailSafe:
		return 2
	case HealthNoData:
		return 3
	}
	return 0
}

// sanitize clamps non-finite values to zero: journal events and gauges must
// stay JSON-encodable whatever garbage a faulted reader produced.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// journaledTick runs one domain's tick and appends its decision event,
// reconstructed from the state the tick started with.
func (c *Controller) journaledTick(ds *domainState, now sim.Time) {
	before, healthBefore := ds.stats, ds.health()
	ds.apiWall = 0
	start := time.Now()
	c.tick(ds, now)
	c.ins.journal.Append(c.decisionEvent(ds, now, before, healthBefore, time.Since(start)))
}

// decisionEvent reconstructs what the tick decided from the counter deltas
// it left behind — the journal costs the control path nothing beyond the
// snapshot copy.
func (c *Controller) decisionEvent(ds *domainState, now sim.Time, before DomainStats, healthBefore string, took time.Duration) obs.Event {
	s := ds.stats
	froze := s.FreezeOps - before.FreezeOps
	unfroze := s.UnfreezeOps - before.UnfreezeOps
	action := "idle"
	switch {
	case s.SkippedNoData > before.SkippedNoData:
		action = "skip-no-data"
	case s.FailSafeTicks > before.FailSafeTicks:
		action = "hold-failsafe"
	case froze > 0 && unfroze > 0:
		action = "swap"
	case froze > 0:
		action = "freeze"
	case unfroze > 0:
		action = "unfreeze"
	case ds.lastTarget > 0:
		action = "hold"
	}
	health := ds.health()
	ev := obs.Event{
		SimMS:        int64(now),
		SimTime:      now.String(),
		Domain:       ds.d.Name,
		PowerW:       sanitize(ds.lastP * ds.budget),
		BudgetW:      sanitize(ds.budget),
		PNorm:        sanitize(ds.lastP),
		Et:           sanitize(ds.lastEt),
		Action:       action,
		TargetFrozen: ds.lastTarget,
		Frozen:       ds.frozen.len(),
		Froze:        froze,
		Unfroze:      unfroze,
		APIErrors:    s.APIErrors - before.APIErrors,
		APILatencyMS: float64(ds.apiWall) / float64(time.Millisecond),
		TickMS:       float64(took) / float64(time.Millisecond),
		Health:       health,
		Degraded:     s.DegradedTicks > before.DegradedTicks,
	}
	if health != healthBefore {
		ev.Transition = healthBefore + "->" + health
	}
	return ev
}

// obsBudgetEvent records one effective-budget movement. Emitted by the tick
// that moved the budget, before it acts and so before its decision event: a
// curtailment and the controller's response to it sit adjacent in the
// journal (the OPERATIONS.md §12 bisection workflow depends on that order).
func obsBudgetEvent(ds *domainState, now sim.Time) obs.Event {
	return obs.Event{
		SimMS:         int64(now),
		SimTime:       now.String(),
		Domain:        ds.d.Name,
		Action:        "budget-change",
		BudgetW:       sanitize(ds.budget),
		OldBudgetW:    sanitize(ds.budgetPrev),
		TargetBudgetW: sanitize(ds.budgetTargetW),
		Frozen:        ds.frozen.len(),
		Health:        ds.health(),
	}
}

// callFreezeAPI invokes the scheduler, metering wall-clock call latency
// when instrumented. Both the tick path and the retry path go through it.
func (c *Controller) callFreezeAPI(ds *domainState, id cluster.ServerID, unfreeze bool) error {
	if c.ins == nil {
		if unfreeze {
			return c.api.Unfreeze(id)
		}
		return c.api.Freeze(id)
	}
	start := time.Now()
	var err error
	if unfreeze {
		err = c.api.Unfreeze(id)
	} else {
		err = c.api.Freeze(id)
	}
	took := time.Since(start)
	ds.apiWall += took
	h := c.ins.apiFreeze
	if unfreeze {
		h = c.ins.apiUnfreeze
	}
	if h != nil {
		h.Observe(took.Seconds())
	}
	return err
}
