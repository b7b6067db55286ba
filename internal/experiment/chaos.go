package experiment

import (
	"fmt"
	"io"

	"repro/internal/breaker"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The chaos experiment is the robustness counterpart of the outage
// experiment: instead of over-provisioning risk, it attacks the control
// plane itself. One heavy diurnal day is driven twice under an identical
// seeded fault storm — monitor blackout across the demand peak, corrupt
// NaN/outlier readings, transient and persistent scheduler API failures
// with latency, TSDB write rejection, and a controller crash/restart — once
// with the resilience layer disabled ("naive": the controller trusts every
// reading and never retries) and once enabled ("resilient"). The fault
// injector's decisions are pure functions of time, so both regimes face
// exactly the same faults regardless of how differently they react.

// ChaosConfig shapes the fault-storm day.
type ChaosConfig struct {
	Seed       uint64
	RowServers int
	// TargetFrac drives uncontrolled demand ≈ 6 % over the scaled budget at
	// the diurnal peak (the outage experiment's calibration).
	TargetFrac float64
	RO         float64
	Day
	// BlackoutLead and BlackoutLen place the monitor blackout: it starts
	// BlackoutLead before the diurnal peak and lasts BlackoutLen, so the
	// naive controller flies blind through the demand ramp.
	BlackoutLead sim.Duration
	BlackoutLen  sim.Duration
	// CrashAt and CrashLen schedule the controller crash/restart, relative
	// to the start of the measured window.
	CrashAt  sim.Duration
	CrashLen sim.Duration
}

// DefaultChaos is a 160-server row under a day-long storm with a five-hour
// monitor blackout across the demand peak.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Seed: 77, RowServers: 160, TargetFrac: 0.78, RO: 0.25,
		Day:          Day{Warmup: sim.Hour, Pretrain: 12 * sim.Hour, Measure: 24 * sim.Hour},
		BlackoutLead: 3 * sim.Hour, BlackoutLen: 5 * sim.Hour,
		CrashAt: 2 * sim.Hour, CrashLen: 10 * sim.Minute,
	}
}

// ChaosOutcome is one regime's result over the measured window.
type ChaosOutcome struct {
	Regime string
	// Violations counts ground-truth over-budget minutes of the controlled
	// group (measured by the tracker from real power, not the faulty
	// reader).
	Violations int
	// PMax is the group's ground-truth peak normalized power.
	PMax float64
	// BreakerTripped reports whether the physical breaker (at the group's
	// rated power, above the enforced budget per §3.2's margin) ever
	// tripped.
	BreakerTripped bool
	// Restarts counts controller crash/restart cycles executed.
	Restarts int
	// FrozenEnd is the frozen-set size at the end of the day.
	FrozenEnd int
	// Stats carries the controller's degraded-operation counters.
	Stats core.DomainStats
	// Chaos counts what the injector actually did to this run.
	Chaos chaos.Stats
}

// ChaosResult pairs the two regimes.
type ChaosResult struct {
	Naive     ChaosOutcome
	Resilient ChaosOutcome
	// Plan is the shared fault schedule (times are absolute sim times).
	Plan chaos.Plan
}

// chaosPlan builds the storm. All windows are absolute; measure starts at
// start and peaks peakAfter later.
func chaosPlan(cfg ChaosConfig, start, peak sim.Time) chaos.Plan {
	min := func(m int64) sim.Duration { return sim.Duration(m) * sim.Minute }
	blackoutEnd := peak.Add(-cfg.BlackoutLead + cfg.BlackoutLen)
	p := chaos.Plan{
		Seed: cfg.Seed,
		Faults: []chaos.Fault{
			// Corrupt samples early in the day: rejected by the resilient
			// controller, swallowed whole by the naive one.
			{Kind: chaos.ReadNaN, From: start.Add(1 * sim.Hour), To: start.Add(1*sim.Hour + 30*sim.Minute), Rate: 0.3},
			{Kind: chaos.ReadOutlier, From: start.Add(90 * sim.Minute), To: start.Add(2 * sim.Hour), Rate: 0.2, Factor: 6},
			// TSDB write rejection: history is lost but sampling survives.
			{Kind: chaos.StoreReject, From: start.Add(2 * sim.Hour), To: start.Add(2*sim.Hour + 20*sim.Minute)},
			// Scheduler flakiness while the controller is actively working.
			{Kind: chaos.APITransient, From: start.Add(3 * sim.Hour), To: start.Add(4 * sim.Hour), Rate: 0.4},
			// The main event: the monitor goes dark through the demand ramp
			// and peak.
			{Kind: chaos.ReadBlackout, From: peak.Add(-cfg.BlackoutLead), To: peak.Add(-cfg.BlackoutLead + cfg.BlackoutLen)},
			// The scheduler goes down the moment sight returns: first calls
			// time out, then fail outright. The dangerous move here is
			// unfreezing into a still-hot row the instant fresh data shows
			// power back under budget — the API outage forces the controller
			// to sit on its frozen set and release it only once the
			// scheduler answers again.
			{Kind: chaos.APILatency, From: blackoutEnd, To: blackoutEnd.Add(min(10)), Latency: 2 * sim.Second, Timeout: sim.Second},
			{Kind: chaos.APIPersistent, From: blackoutEnd.Add(min(10)), To: blackoutEnd.Add(min(40))},
			// The scheduler comes back flaky: the slow release of the
			// blackout's frozen set runs against 40 % call failures, which
			// the retry chains absorb between ticks.
			{Kind: chaos.APITransient, From: blackoutEnd.Add(min(40)), To: blackoutEnd.Add(min(100)), Rate: 0.4},
		},
	}
	if cfg.CrashLen > 0 {
		// Controller crash/restart (executed by the harness); CrashLen 0
		// runs the same storm without it, which the statelessness property
		// test compares against.
		p.Faults = append(p.Faults, chaos.Fault{
			Kind: chaos.CtlCrash, From: start.Add(cfg.CrashAt), To: start.Add(cfg.CrashAt + cfg.CrashLen),
		})
	}
	return p
}

// RunChaos drives the identical fault-storm day through both regimes.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	type regimeRun struct {
		out  *ChaosOutcome
		plan chaos.Plan
	}
	naiveFlags := []bool{true, false}
	// The injector's fault decisions are pure functions of time, so both
	// regimes face the same storm regardless of execution order.
	runs, err := runUnits([]string{"naive", "resilient"}, func(i int) (regimeRun, error) {
		out, plan, err := runChaosOnce(cfg, naiveFlags[i])
		if err != nil {
			return regimeRun{}, fmt.Errorf("chaos %s: %w", []string{"naive", "resilient"}[i], err)
		}
		return regimeRun{out: out, plan: plan}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Naive: *runs[0].out, Resilient: *runs[1].out, Plan: runs[0].plan}, nil
}

func runChaosOnce(cfg ChaosConfig, naive bool) (*ChaosOutcome, chaos.Plan, error) {
	// Peak the diurnal load mid-way through the measured window.
	start := cfg.Start()
	peak := start.Add(cfg.Measure / 2)

	ctrl, err := NewControlled(ControlledConfig{
		Seed:             cfg.Seed,
		RowServers:       cfg.RowServers,
		RestRows:         2,
		TargetPowerFrac:  cfg.TargetFrac,
		RO:               cfg.RO,
		ScaleCtrlBudget:  true,
		DiurnalAmplitude: 0.35,
		PeakHour:         dayHour(float64(peak) / float64(sim.Hour)),
	})
	if err != nil {
		return nil, chaos.Plan{}, err
	}
	rig := ctrl.Rig

	plan := chaosPlan(cfg, start, peak)
	inj, err := chaos.New(rig.Eng, plan)
	if err != nil {
		return nil, chaos.Plan{}, err
	}
	// The controller sees the world only through the injector; the tracker
	// keeps reading ground truth from the monitor.
	reader := inj.WrapReader(rig.Mon)
	api := inj.WrapAPI(rig.Sched)
	rig.Mon.SetStore(inj.WrapStore(rig.DB))

	// Physical breaker at the group's rated power — the enforced budget sits
	// below it by the over-provisioning margin, as deployed (§3.2).
	expServers := make([]*cluster.Server, len(ctrl.Groups.Exp))
	for i, id := range ctrl.Groups.Exp {
		expServers[i] = rig.Cluster.Server(id)
	}
	brk, err := breaker.New(rig.Eng, breaker.DefaultConfig(ctrl.GroupRatedW), expServers)
	if err != nil {
		return nil, chaos.Plan{}, err
	}
	brk.Start()

	restarts := 0
	var controller *core.Controller
	var stopped core.DomainStats
	measureFrom, err := ctrl.Run(cfg.Day, func() error {
		// Pre-train Et from the control group's history, as in RunAmpere.
		et, err := ctrl.TrainEt(false, sim.Time(cfg.Warmup), 99.5)
		if err != nil {
			return err
		}
		// The controller enforces PM a little below the audited budget —
		// the §3.2 operator safety margin — so boundary-riding control
		// jitter does not register as violations against the real limit.
		domain := ctrl.Domain(false, et)
		domain.BudgetW *= 0.985
		ccfg := core.DefaultConfig()
		ccfg.Resilience.Disabled = naive
		// Drill posture: while dark, assume demand rises at 4× the trained
		// Et and keep tightening for 10 intervals before latching the
		// fail-safe hold — a long blackout across the demand peak then meets
		// a frozen set sized for the peak, not for the last healthy minute.
		ccfg.Resilience.EtInflation = 4
		ccfg.Resilience.FailSafeAfter = 10
		newController := func() (*core.Controller, error) {
			return core.New(rig.Eng, reader, api, ccfg, []core.Domain{domain})
		}
		if controller, err = newController(); err != nil {
			return err
		}
		controller.Start()

		// Crash/restart cycles: the controller process dies at From and a
		// fresh instance starts at To, rebuilding its frozen-set view from
		// the scheduler's ground truth (the statelessness claim: everything
		// else it needs — Et history — lives in the TSDB).
		for _, f := range plan.Crashes() {
			rig.Eng.At(f.From, "ctl-crash", func(sim.Time) {
				stopped = stopped.Add(controller.Stats(0))
				controller.Stop()
			})
			rig.Eng.At(f.To, "ctl-restart", func(sim.Time) {
				fresh, err := newController()
				if err != nil {
					panic(err) // same config that already validated
				}
				fresh.Resync(func(id cluster.ServerID) bool {
					return rig.Cluster.Server(id).Frozen()
				})
				controller = fresh
				controller.Start()
				restarts++
			})
		}
		return nil
	})
	if err != nil {
		return nil, chaos.Plan{}, err
	}

	var pmax stats.Summary
	for _, v := range ctrl.Tracker.NormPowerSeries(GExp, measureFrom) {
		pmax.Add(v)
	}
	tripped, _ := brk.Tripped()

	regime := "resilient"
	if naive {
		regime = "naive"
	}
	return &ChaosOutcome{
		Regime:         regime,
		Violations:     ctrl.Tracker.Violations(GExp, measureFrom),
		PMax:           pmax.Max(),
		BreakerTripped: tripped,
		Restarts:       restarts,
		FrozenEnd:      controller.FrozenCount(0),
		// The stopped instances' counters fold in, so the report covers
		// the whole day rather than only the surviving instance.
		Stats: controller.Stats(0).Add(stopped),
		Chaos: inj.Stats(),
	}, plan, nil
}

// FormatChaos renders the regime comparison.
func FormatChaos(w io.Writer, r *ChaosResult) {
	fmt.Fprintf(w, "Fault-storm day: identical seeded faults, naive vs resilient controller\n")
	fmt.Fprintf(w, "  (monitor blackout across the peak, NaN/outlier samples, scheduler\n")
	fmt.Fprintf(w, "   API failures with latency, TSDB write rejection, controller crash)\n")
	fmt.Fprintf(w, "  %-10s %10s %8s %8s %9s %9s %9s %10s %8s\n",
		"regime", "violations", "Pmax", "tripped", "degraded", "failsafe", "invalid", "MTTR(min)", "retries")
	for _, o := range []ChaosOutcome{r.Naive, r.Resilient} {
		fmt.Fprintf(w, "  %-10s %10d %8.3f %8v %9d %9d %9d %10.1f %8d\n",
			o.Regime, o.Violations, o.PMax, o.BreakerTripped,
			o.Stats.DegradedTicks, o.Stats.FailSafeTicks, o.Stats.InvalidSamples,
			o.Stats.MTTR().Minutes(), o.Stats.Retries)
	}
	fmt.Fprintf(w, "  faults injected: %d blacked-out reads, %d NaN, %d outliers, %d API failures, %d store rejects\n",
		r.Resilient.Chaos.ReadsBlackedOut, r.Resilient.Chaos.ReadsNaN,
		r.Resilient.Chaos.ReadsOutlier, r.Resilient.Chaos.APIFailures,
		r.Resilient.Chaos.StoreRejects)
	fmt.Fprintf(w, "  (the resilient controller rides out the storm in degraded/fail-safe\n")
	fmt.Fprintf(w, "   mode; the naive one trusts the frozen snapshot and sails over budget)\n")
}
