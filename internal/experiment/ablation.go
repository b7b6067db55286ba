package experiment

import (
	"fmt"
	"io"

	"repro/internal/capping"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// The ablation runners quantify the design choices §3 argues for: freezing
// the hottest servers, the rstable hysteresis, the 99.5th-percentile Et
// margin, and the horizon-1 SPCP simplification. Each runs the same heavy
// controlled scenario with one knob varied.

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

// AblationConfig shapes the shared scenario.
type AblationConfig struct {
	Seed       uint64
	RowServers int
	// TargetFrac and Amplitude define the (heavy) demand; defaults press
	// the budget at peak hours so the knobs matter.
	TargetFrac float64
	Amplitude  float64
	Warmup     sim.Duration
	Pretrain   sim.Duration
	Measure    sim.Duration
}

// DefaultAblation uses the Table 2 heavy day.
func DefaultAblation() AblationConfig {
	return AblationConfig{Seed: 99, RowServers: 160, TargetFrac: 0.772, Amplitude: 0.35}
}

func (a AblationConfig) base() AmpereRunConfig {
	return AmpereRunConfig{
		Controlled: ControlledConfig{
			Seed:             a.Seed,
			RowServers:       a.RowServers,
			RestRows:         1,
			TargetPowerFrac:  a.TargetFrac,
			RO:               0.25,
			ScaleCtrlBudget:  true,
			DiurnalAmplitude: a.Amplitude,
		},
		Warmup:   a.Warmup,
		Pretrain: a.Pretrain,
		Measure:  a.Measure,
	}
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

// RunSelectionAblation compares hottest / coldest / random freeze selection.
// The paper prefers hottest because low-power servers "may have more
// computation capacity left and thus freezing them may result in a higher
// cost".
func RunSelectionAblation(cfg AblationConfig) ([]AblationOutcome, error) {
	sels := []core.SelectionPolicy{core.SelectHottest, core.SelectColdest, core.SelectRandom}
	names := make([]string, len(sels))
	for i, sel := range sels {
		names[i] = sel.String()
	}
	return runUnits(names, func(i int) (AblationOutcome, error) {
		c := cfg.base()
		c.Selection = sels[i]
		run, err := RunAmpere(c)
		if err != nil {
			return AblationOutcome{}, fmt.Errorf("selection %v: %w", sels[i], err)
		}
		return outcome(sels[i].String(), run), nil
	})
}

// RunRStableAblation sweeps the stability ratio. The paper "find[s] that the
// value of rstable does not affect the performance much" and fixes 0.8; the
// sweep verifies that insensitivity while exposing the churn cost of
// disabling hysteresis (rstable → 1).
func RunRStableAblation(cfg AblationConfig, values []float64) ([]AblationOutcome, error) {
	if values == nil {
		values = []float64{0.5, 0.8, 0.95}
	}
	names := make([]string, len(values))
	for i, v := range values {
		names[i] = fmt.Sprintf("rstable=%.2f", v)
	}
	return runUnits(names, func(i int) (AblationOutcome, error) {
		c := cfg.base()
		c.RStable = values[i]
		run, err := RunAmpere(c)
		if err != nil {
			return AblationOutcome{}, fmt.Errorf("rstable %v: %w", values[i], err)
		}
		return outcome(names[i], run), nil
	})
}

// RunEtPercentileAblation sweeps the Et percentile: lower percentiles leave
// a thinner safety margin (more violations, less freezing), the paper's
// 99.5 is deliberately conservative.
func RunEtPercentileAblation(cfg AblationConfig, percentiles []float64) ([]AblationOutcome, error) {
	if percentiles == nil {
		percentiles = []float64{50, 90, 99.5}
	}
	names := make([]string, len(percentiles))
	for i, p := range percentiles {
		names[i] = fmt.Sprintf("etpct=%.1f", p)
	}
	return runUnits(names, func(i int) (AblationOutcome, error) {
		c := cfg.base()
		c.EtPercentile = percentiles[i]
		run, err := RunAmpere(c)
		if err != nil {
			return AblationOutcome{}, fmt.Errorf("et percentile %v: %w", percentiles[i], err)
		}
		return outcome(names[i], run), nil
	})
}

// RunHorizonAblation compares the paper's horizon-1 SPCP controller with
// exact horizon-N RHC over the same scenario (Lemma 3.1 predicts little
// difference under normal demand).
func RunHorizonAblation(cfg AblationConfig, horizons []int) ([]AblationOutcome, error) {
	if horizons == nil {
		horizons = []int{1, 5, 15}
	}
	names := make([]string, len(horizons))
	for i, h := range horizons {
		names[i] = fmt.Sprintf("horizon=%d", h)
	}
	return runUnits(names, func(i int) (AblationOutcome, error) {
		c := cfg.base()
		c.Horizon = horizons[i]
		run, err := RunAmpere(c)
		if err != nil {
			return AblationOutcome{}, fmt.Errorf("horizon %d: %w", horizons[i], err)
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
func RunCappingAblation(cfg AblationConfig) ([]CappingAblationRow, error) {
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
		return *row, nil
	})
}

func runCappingVariant(cfg AblationConfig, name string, mode capping.Mode, ampere bool) (*CappingAblationRow, error) {
	base := cfg.base()
	base.setDefaults()
	if ampere {
		run, err := RunAmpere(base)
		if err != nil {
			return nil, err
		}
		st := run.Analyze(name)
		return &CappingAblationRow{
			Mechanism:  name,
			Violations: st.ViolationsExp,
			Throughput: run.Ctrl.Tracker.PlacedBetween(GExp, run.MeasureFrom, -1),
			StretchP50: run.Ctrl.Rig.Sched.StretchQuantile(0.5),
			StretchP99: run.Ctrl.Rig.Sched.StretchQuantile(0.99),
			PMax:       st.PMaxExp,
		}, nil
	}
	ctrl, err := NewControlled(base.Controlled)
	if err != nil {
		return nil, err
	}
	rig := ctrl.Rig
	// Cap the experiment group only, mirroring the Ampere variant's domain.
	var servers []*cluster.Server
	for _, id := range ctrl.Groups.Exp {
		servers = append(servers, rig.Cluster.Server(id))
	}
	rig.StartBase()
	if err := rig.Run(sim.Time(base.Warmup + base.Pretrain)); err != nil {
		return nil, err
	}
	ccfg := capping.DefaultConfig()
	ccfg.Mode = mode
	cp, err := capping.New(rig.Eng, ccfg, []capping.Domain{
		{Name: "exp-group", Servers: servers, BudgetW: ctrl.ExpBudgetW},
	})
	if err != nil {
		return nil, err
	}
	measureFrom := ctrl.Tracker.Samples()
	rig.Sched.ResetStretchStats()
	cp.Start()
	if err := rig.Run(sim.Time(base.Warmup + base.Pretrain + base.Measure)); err != nil {
		return nil, err
	}
	var pmax float64
	for _, v := range ctrl.Tracker.NormPowerSeries(GExp, measureFrom) {
		if v > pmax {
			pmax = v
		}
	}
	st := cp.Stats(0)
	frac := 0.0
	if st.ServerSamples > 0 {
		frac = float64(st.CappedServerSamples) / float64(st.ServerSamples)
	}
	return &CappingAblationRow{
		Mechanism:  name,
		Violations: ctrl.Tracker.Violations(GExp, measureFrom),
		Throughput: ctrl.Tracker.PlacedBetween(GExp, measureFrom, -1),
		CappedFrac: frac,
		StretchP50: rig.Sched.StretchQuantile(0.5),
		StretchP99: rig.Sched.StretchQuantile(0.99),
		PMax:       pmax,
	}, nil
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
func FormatAblation(w interface{ Write([]byte) (int, error) }, title string, rows []AblationOutcome) {
	fmt.Fprintf(w, "Ablation: %s\n", title)
	fmt.Fprintf(w, "  %-14s %10s %8s %8s %8s %8s\n", "variant", "violations", "umean", "rT", "churn", "Pmax")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %10d %8.3f %8.3f %8d %8.3f\n",
			r.Variant, r.Violations, r.UMean, r.RThru, r.ChurnOps, r.PMaxExp)
	}
}
