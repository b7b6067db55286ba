package experiment

import (
	"fmt"
	"io"

	"repro/internal/breaker"
	"repro/internal/capping"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The outage experiment dramatizes §2.1's motivation: the row budget is
// enforced by a physical breaker, and exceeding it long enough blacks out
// the whole row. We over-provision a row by rO = 0.25, drive a heavy day
// against it, and compare three protection regimes: nothing, DVFS capping
// (the classical safety net), and Ampere (with capping kept on as its own
// safety net, as deployed).

// OutageConfig shapes the scenario.
type OutageConfig struct {
	Seed       uint64
	RowServers int
	RO         float64
	// TargetFrac drives demand above the scaled budget at the diurnal peak.
	TargetFrac float64
	Day
	// RepairAfter is the outage duration before servers return.
	RepairAfter sim.Duration
}

// DefaultOutage uses a 160-server row with peak demand ≈ 6 % over budget.
func DefaultOutage() OutageConfig {
	return OutageConfig{
		Seed: 55, RowServers: 160, RO: 0.25, TargetFrac: 0.78,
		Day:         Day{Warmup: sim.Hour, Pretrain: 12 * sim.Hour, Measure: 12 * sim.Hour},
		RepairAfter: 30 * sim.Minute,
	}
}

// OutageOutcome is one regime's result.
type OutageOutcome struct {
	Regime string
	// Tripped reports a breaker trip; TripAfter is measured from the start
	// of the measured window.
	Tripped   bool
	TripAfter sim.Duration
	// JobsKilled counts jobs destroyed by the outage.
	JobsKilled int64
	// Throughput is completed jobs during the measured window.
	Throughput int64
	// P999Latency is unused here (no service); PMax is the row's peak
	// normalized power.
	PMax float64
}

// RunOutage runs the three regimes on the identical workload.
func RunOutage(cfg OutageConfig) ([]OutageOutcome, error) {
	regimes := []string{"none", "capping", "ampere"}
	return runUnits(regimes, func(i int) (OutageOutcome, error) {
		o, err := runOutageOnce(cfg, regimes[i])
		if err != nil {
			return OutageOutcome{}, fmt.Errorf("outage %s: %w", regimes[i], err)
		}
		return *o, nil
	})
}

func runOutageOnce(cfg OutageConfig, regime string) (*OutageOutcome, error) {
	ctrl, err := NewControlled(ControlledConfig{
		Seed:             cfg.Seed,
		RowServers:       cfg.RowServers,
		RestRows:         2,
		TargetPowerFrac:  cfg.TargetFrac,
		RO:               cfg.RO,
		ScaleCtrlBudget:  true,
		DiurnalAmplitude: 0.35,
		PeakHour:         dayHour(float64((cfg.Warmup+cfg.Pretrain)/sim.Hour) + 2),
	})
	if err != nil {
		return nil, err
	}
	rig := ctrl.Rig
	row := rig.Cluster.Row(0)
	rowBudget := ctrl.ExpBudgetW + ctrl.CtrlBudgetW

	var completedBefore int64
	var brk *breaker.Breaker
	var trippedAt sim.Time
	measureStart, err := ctrl.Run(cfg.Day, func() error {
		completedBefore = rig.Sched.Stats().Completed
		// Breaker over the whole row; on trip, the entire row fails and is
		// repaired after RepairAfter.
		if brk, err = breaker.New(rig.Eng, breaker.DefaultConfig(rowBudget), row); err != nil {
			return err
		}
		brk.OnTrip(func(now sim.Time) {
			trippedAt = now
			for _, sv := range row {
				if err := rig.Sched.FailServer(sv.ID); err != nil {
					panic(err) // servers cannot already be failed here
				}
			}
			rig.Eng.After(cfg.RepairAfter, "row-repair", func(sim.Time) {
				for _, sv := range row {
					if err := rig.Sched.RepairServer(sv.ID); err != nil {
						panic(err)
					}
				}
				brk.Reset()
			})
		})
		brk.Start()

		switch regime {
		case "none":
			return nil
		case "ampere":
			if _, err := ctrl.Ampere(cfg.Day, true, core.DefaultConfig()); err != nil {
				return err
			}
			// Capping stays on as the safety net, as in the deployment.
			fallthrough
		case "capping":
			cp, err := ctrl.RowCapper(capping.DefaultConfig())
			if err != nil {
				return err
			}
			cp.Start()
			return nil
		}
		return fmt.Errorf("unknown regime %q", regime)
	})
	if err != nil {
		return nil, err
	}

	e := ctrl.Tracker.PowerSeries(GExp, measureStart)
	c := ctrl.Tracker.PowerSeries(GCtrl, measureStart)
	var pmax stats.Summary
	for i := range e {
		pmax.Add((e[i] + c[i]) / rowBudget)
	}
	tripped, _ := brk.Tripped()
	o := &OutageOutcome{
		Regime:     regime,
		Tripped:    tripped || trippedAt > 0,
		JobsKilled: rig.Sched.Stats().Killed,
		Throughput: rig.Sched.Stats().Completed - completedBefore,
		PMax:       pmax.Max(),
	}
	if o.Tripped {
		o.TripAfter = trippedAt.Sub(cfg.Start())
	}
	return o, nil
}

// FormatOutage renders the comparison.
func FormatOutage(w io.Writer, rows []OutageOutcome) {
	fmt.Fprintf(w, "Breaker-trip outage scenario (§2.1's motivating risk)\n")
	fmt.Fprintf(w, "  %-10s %-10s %12s %12s %12s %8s\n",
		"regime", "tripped", "trip after", "jobs killed", "throughput", "Pmax")
	for _, r := range rows {
		after := "-"
		if r.Tripped {
			after = fmt.Sprintf("%.0f min", r.TripAfter.Minutes())
		}
		fmt.Fprintf(w, "  %-10s %-10v %12s %12d %12d %8.3f\n",
			r.Regime, r.Tripped, after, r.JobsKilled, r.Throughput, r.PMax)
	}
	fmt.Fprintf(w, "  (uncontrolled over-provisioning risks a whole-row outage; both\n")
	fmt.Fprintf(w, "   protections prevent it — Ampere additionally without touching jobs)\n")
}
