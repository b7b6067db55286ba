package experiment

import (
	"fmt"
	"io"

	"repro/internal/capping"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// The ablations quantify the design choices §3 argues for: freezing the
// hottest servers, the rstable hysteresis, the 99.5th-percentile Et margin,
// and the horizon-1 SPCP simplification (the catalogue's ablationSweeps),
// each by rerunning the same heavy controlled scenario under a policy patch;
// and the case against DVFS capping (RunCappingAblation).

// AblationOutcome is one variant's headline numbers.
type AblationOutcome struct {
	Variant    string
	Violations int
	UMean      float64
	RThru      float64
	// ChurnOps counts freeze+unfreeze calls: the scheduling disturbance
	// the rstable hysteresis is meant to limit.
	ChurnOps int64
	PMaxExp  float64
}

// DefaultAblation is the shared scenario: the Table 2 heavy day, whose
// demand presses the budget at peak hours so the knobs matter.
func DefaultAblation() AmpereRunConfig {
	return AmpereRunConfig{Controlled: ControlledConfig{Seed: 99, RowServers: 160, RestRows: 1,
		TargetPowerFrac: 0.772, RO: 0.25, ScaleCtrlBudget: true, DiurnalAmplitude: 0.35},
		Day: Day{Warmup: 2 * sim.Hour, Pretrain: 24 * sim.Hour, Measure: 24 * sim.Hour}}
}

func outcome(variant string, run *AmpereRun) AblationOutcome {
	st := run.Analyze(variant)
	cst := run.Controller.Stats(0)
	return AblationOutcome{
		Variant:    variant,
		Violations: st.ViolationsExp,
		UMean:      st.UMean,
		RThru:      run.ThroughputRatio(),
		ChurnOps:   cst.FreezeOps + cst.UnfreezeOps,
		PMaxExp:    st.PMaxExp,
	}
}

// AblationVariant is one row of an ablation table: its name and the policy
// patch, in core.ParsePatch syntax, the heavy day runs under.
type AblationVariant struct{ Name, Patch string }

// RunAblation runs the scenario once per variant, each under its patch.
func RunAblation(cfg AmpereRunConfig, variants []AblationVariant) ([]AblationOutcome, error) {
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.Name
	}
	return runUnits(names, func(i int) (AblationOutcome, error) {
		c := cfg
		var err error
		if c.Policy, err = core.ParsePatch(variants[i].Patch); err != nil {
			return AblationOutcome{}, fmt.Errorf("ablation %s: %w", names[i], err)
		}
		run, err := RunAmpere(c)
		if err != nil {
			return AblationOutcome{}, fmt.Errorf("ablation %s: %w", names[i], err)
		}
		return outcome(names[i], run), nil
	})
}

// CappingAblationRow compares power-protection mechanisms on one metric
// set.
type CappingAblationRow struct {
	Mechanism  string
	Violations int
	Throughput int64
	// CappedFrac is the fraction of server-intervals spent
	// frequency-capped.
	CappedFrac float64
	// StretchP50/P99 are quantiles of completed jobs' slowdown factor over
	// the measured span (1.0 = full speed throughout) — the job-visible
	// harm of each mechanism.
	StretchP50 float64
	StretchP99 float64
	PMax       float64
}

// RunCappingAblation quantifies §2.1's case against naive power management:
// the same heavy day protected by (a) coordinated proportional DVFS capping,
// (b) naive static per-server fair-share capping, and (c) Ampere. Static
// capping is safe but throttles hot servers even when the row has headroom;
// Ampere avoids touching running jobs at all.
func RunCappingAblation(cfg AmpereRunConfig) ([]CappingAblationRow, error) {
	type variant struct {
		name   string
		mode   capping.Mode
		ampere bool
	}
	variants := []variant{
		{name: "capping-proportional", mode: capping.Proportional},
		{name: "capping-static", mode: capping.PerServerStatic},
		{name: "ampere", ampere: true},
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	return runUnits(names, func(i int) (CappingAblationRow, error) {
		v := variants[i]
		row, err := runCappingVariant(cfg, v.name, v.mode, v.ampere)
		if err != nil {
			return CappingAblationRow{}, fmt.Errorf("capping ablation %s: %w", v.name, err)
		}
		return row, nil
	})
}

// runCappingVariant runs the heavy day with either Ampere or a capper of
// the given mode over the experiment group, and tabulates the measured span.
func runCappingVariant(cfg AmpereRunConfig, name string, mode capping.Mode, ampere bool) (CappingAblationRow, error) {
	ccfg, err := cfg.controllerConfig()
	if err != nil {
		return CappingAblationRow{}, err
	}
	ctrl, err := NewControlled(cfg.Controlled)
	if err != nil {
		return CappingAblationRow{}, err
	}
	rig := ctrl.Rig
	var cp *capping.Capper
	from, err := ctrl.Run(cfg.Day, func() error {
		if ampere {
			_, err := ctrl.Ampere(cfg.Day, false, ccfg)
			return err
		}
		// Cap the experiment group only, mirroring the Ampere variant's
		// domain.
		servers := make([]*cluster.Server, len(ctrl.Groups.Exp))
		for i, id := range ctrl.Groups.Exp {
			servers[i] = rig.Cluster.Server(id)
		}
		capCfg := capping.DefaultConfig()
		capCfg.Mode = mode
		if cp, err = capping.New(rig.Eng, capCfg, []capping.Domain{
			{Name: "exp-group", Servers: servers, BudgetW: ctrl.ExpBudgetW},
		}); err != nil {
			return err
		}
		cp.Start()
		return nil
	})
	if err != nil {
		return CappingAblationRow{}, err
	}
	row := CappingAblationRow{
		Mechanism:  name,
		Violations: ctrl.Tracker.Violations(GExp, from),
		Throughput: ctrl.Tracker.PlacedBetween(GExp, from, -1),
		StretchP50: rig.Sched.StretchQuantile(0.5),
		StretchP99: rig.Sched.StretchQuantile(0.99),
	}
	for _, v := range ctrl.Tracker.NormPowerSeries(GExp, from) {
		row.PMax = max(row.PMax, v)
	}
	if cp != nil {
		if st := cp.Stats(0); st.ServerSamples > 0 {
			row.CappedFrac = float64(st.CappedServerSamples) / float64(st.ServerSamples)
		}
	}
	return row, nil
}

// FormatCappingAblation renders the comparison.
func FormatCappingAblation(w io.Writer, rows []CappingAblationRow) {
	fmt.Fprintf(w, "Ablation: power-protection mechanism\n")
	fmt.Fprintf(w, "  %-22s %10s %12s %10s %12s %12s %8s\n",
		"mechanism", "violations", "throughput", "capped", "stretch-p50", "stretch-p99", "Pmax")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %10d %12d %9.1f%% %12.2f %12.2f %8.3f\n",
			r.Mechanism, r.Violations, r.Throughput, r.CappedFrac*100,
			r.StretchP50, r.StretchP99, r.PMax)
	}
}

// FormatAblation renders outcomes as a table.
func FormatAblation(w io.Writer, title string, rows []AblationOutcome) {
	fmt.Fprintf(w, "Ablation: %s\n", title)
	fmt.Fprintf(w, "  %-14s %10s %8s %8s %8s %8s\n", "variant", "violations", "umean", "rT", "churn", "Pmax")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %10d %8.3f %8.3f %8d %8.3f\n",
			r.Variant, r.Violations, r.UMean, r.RThru, r.ChurnOps, r.PMaxExp)
	}
}
