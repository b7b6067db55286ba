package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AmpereRunConfig assembles one Ampere-controlled controlled experiment:
// the Day's pretrain span with the controller off (the paper's long-term
// power-history collection), then its measured span under Ampere.
type AmpereRunConfig struct {
	Controlled ControlledConfig
	Day
	// Policy is laid over core.DefaultConfig, the paper's choices (the
	// ablations vary it); its Et percentile also trains the pre-trained Et.
	Policy core.PolicyPatch
}

// controllerConfig is core.DefaultConfig under the run's policy patch, its
// freeze selection seeded by the rig's seed.
func (c AmpereRunConfig) controllerConfig() (core.Config, error) {
	ccfg := core.DefaultConfig()
	ccfg.SelectionSeed = c.Controlled.Seed
	return ccfg, c.Policy.Apply(&ccfg)
}

// AmpereRun is a completed controlled run with Ampere managing the
// experiment group.
type AmpereRun struct {
	Ctrl       *Controlled
	Controller *core.Controller
	// MeasureFrom is the tracker sample index where the measured span
	// begins (the moment the controller started).
	MeasureFrom int
}

// uProbe indexes the freezing-ratio probe, the one probe RunAmpere adds.
const uProbe = 0

// RunAmpere executes the full scenario and returns it ready for analysis.
func RunAmpere(cfg AmpereRunConfig) (*AmpereRun, error) {
	ccfg, err := cfg.controllerConfig()
	if err != nil {
		return nil, err
	}
	ctrl, err := NewControlled(cfg.Controlled)
	if err != nil {
		return nil, err
	}
	run := &AmpereRun{Ctrl: ctrl}
	ctrl.Tracker.AddProbe("freeze-ratio", func() float64 {
		if run.Controller == nil {
			return 0
		}
		return run.Controller.FreezeRatio(0)
	})
	run.MeasureFrom, err = ctrl.Run(cfg.Day, func() (err error) {
		run.Controller, err = ctrl.Ampere(cfg.Day, false, ccfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return run, nil
}

// ScenarioStats is one Table 2 column pair: controller activity plus power
// statistics for both groups over the measured span.
type ScenarioStats struct {
	Name          string
	UMean, UMax   float64
	PMeanExp      float64
	PMaxExp       float64
	PMeanCtrl     float64
	PMaxCtrl      float64
	ViolationsExp int
	ViolationsCtl int
	Samples       int
}

// Series is the Fig 10 view of the same run: minute-resolution normalized
// power for both groups and the freezing ratio.
type Series struct {
	ExpNorm  []float64
	CtrlNorm []float64
	U        []float64
}

// Analyze summarizes the measured span.
func (r *AmpereRun) Analyze(name string) ScenarioStats {
	t := r.Ctrl.Tracker
	exp := t.NormPowerSeries(GExp, r.MeasureFrom)
	ctl := t.NormPowerSeries(GCtrl, r.MeasureFrom)
	u := t.ProbeSeries(uProbe, r.MeasureFrom)
	var se, sc, su stats.Summary
	for i := range exp {
		se.Add(exp[i])
		sc.Add(ctl[i])
		su.Add(u[i])
	}
	return ScenarioStats{
		Name:          name,
		UMean:         su.Mean(),
		UMax:          su.Max(),
		PMeanExp:      se.Mean(),
		PMaxExp:       se.Max(),
		PMeanCtrl:     sc.Mean(),
		PMaxCtrl:      sc.Max(),
		ViolationsExp: t.Violations(GExp, r.MeasureFrom),
		ViolationsCtl: t.Violations(GCtrl, r.MeasureFrom),
		Samples:       len(exp),
	}
}

// SeriesView extracts the Fig 10 series of the measured span.
func (r *AmpereRun) SeriesView() Series {
	t := r.Ctrl.Tracker
	return Series{
		ExpNorm:  t.NormPowerSeries(GExp, r.MeasureFrom),
		CtrlNorm: t.NormPowerSeries(GCtrl, r.MeasureFrom),
		U:        t.ProbeSeries(uProbe, r.MeasureFrom),
	}
}

// ThroughputRatio returns rT = thruE/thruC over the measured span.
func (r *AmpereRun) ThroughputRatio() float64 {
	t := r.Ctrl.Tracker
	thruE := t.PlacedBetween(GExp, r.MeasureFrom, -1)
	thruC := t.PlacedBetween(GCtrl, r.MeasureFrom, -1)
	if thruC == 0 {
		return 0
	}
	return float64(thruE) / float64(thruC)
}

// Table2Config parameterizes the §4.2 effectiveness experiment (Table 2 and
// Fig 10): over-provisioning 0.25 on both groups, one light and one heavy
// day.
type Table2Config struct {
	Seed       uint64
	RowServers int
	RO         float64
	// LightFrac and HeavyFrac are control-group steady power targets as
	// fractions of rated power (defaults reproduce the paper's normalized
	// ≈ 0.86 and ≈ 0.95–0.97 under RO 0.25).
	LightFrac, HeavyFrac float64
	Day
}

// DefaultTable2 reproduces the paper's setup: 400 servers, rO = 0.25, 24 h
// per workload level.
func DefaultTable2() Table2Config {
	return Table2Config{Seed: 10, RowServers: 400, RO: 0.25, LightFrac: 0.686, HeavyFrac: 0.772,
		Day: Day{Warmup: 2 * sim.Hour, Pretrain: 24 * sim.Hour, Measure: 24 * sim.Hour}}
}

// Table2Result holds both scenarios with their Fig 10 series.
type Table2Result struct {
	Light, Heavy       ScenarioStats
	LightSer, HeavySer Series
	// Baseline control effectiveness: the heavy scenario's control group
	// is the "no power control" comparator whose violations the paper
	// reports as 321 vs Ampere's 1.
}

// RunTable2 runs the light and heavy controlled scenarios.
func RunTable2(cfg Table2Config) (*Table2Result, error) {
	run := func(frac float64, seedSalt uint64) (*AmpereRun, error) {
		return RunAmpere(AmpereRunConfig{
			Controlled: ControlledConfig{
				Seed:             cfg.Seed + seedSalt,
				RowServers:       cfg.RowServers,
				RestRows:         2,
				TargetPowerFrac:  frac,
				RO:               cfg.RO,
				ScaleCtrlBudget:  true,
				DiurnalAmplitude: 0.35,
			},
			Day: cfg.Day,
		})
	}
	fracs := []float64{cfg.LightFrac, cfg.HeavyFrac}
	runs, err := runUnits([]string{"light", "heavy"}, func(i int) (*AmpereRun, error) {
		r, err := run(fracs[i], uint64(i))
		if err != nil {
			return nil, fmt.Errorf("%s scenario: %w", []string{"light", "heavy"}[i], err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	light, heavy := runs[0], runs[1]
	return &Table2Result{
		Light:    light.Analyze("light"),
		Heavy:    heavy.Analyze("heavy"),
		LightSer: light.SeriesView(),
		HeavySer: heavy.SeriesView(),
	}, nil
}

// Fig12Config parameterizes the §4.4 power/throughput illustration: budget
// scaled on the experiment group only, a demand peak early in the window.
type Fig12Config struct {
	Seed       uint64
	RowServers int
	RO         float64
	Day
}

// DefaultFig12 matches the paper: rO = 0.25, four hours, heavy at the start.
func DefaultFig12() Fig12Config {
	return Fig12Config{Seed: 12, RowServers: 400, RO: 0.25,
		Day: Day{Warmup: 2 * sim.Hour, Pretrain: 24 * sim.Hour, Measure: 4 * sim.Hour}}
}

// fig12Window is the span, in minutes, the normalized-throughput panel
// aggregates.
const fig12Window = 10

// Fig12Result holds the two panels plus the headline numbers discussed in
// §4.4.
type Fig12Result struct {
	// Power panel: per-minute normalized power. CtrlNorm is normalized to
	// the experiment group's scaled budget, per the paper's footnote 2.
	ExpNorm, CtrlNorm []float64
	// Threshold is the mean control threshold (1 − Et) over the span.
	Threshold float64
	// Throughput panel: per-window thruE/thruC.
	ThruRatio []float64
	// High-load box: the throughput ratio while the control group demanded
	// more than the budget, and overall.
	RTHighLoad float64
	RTOverall  float64
	GTPW       float64
	RO         float64
}

// RunFig12 reproduces Fig 12.
func RunFig12(cfg Fig12Config) (*Fig12Result, error) {
	run, err := RunAmpere(AmpereRunConfig{
		Controlled: ControlledConfig{
			Seed:       cfg.Seed,
			RowServers: cfg.RowServers,
			RestRows:   2,
			// An 8-hour load wave heavy enough that uncontrolled demand
			// clearly exceeds the scaled budget around its peak and drops
			// back under within the window — the paper's boxed high-load
			// region followed by slack, all inside four hours.
			TargetPowerFrac:    0.772,
			RO:                 cfg.RO,
			ScaleCtrlBudget:    false,
			DiurnalAmplitude:   0.40,
			DiurnalPeriodHours: 8,
			// Position the load peak ≈ 30 min into the measured window so
			// the boxed high-load region opens the figure, as in the paper.
			PeakHour: float64((cfg.Warmup+cfg.Pretrain)/sim.Hour) + 0.5,
		},
		Day: cfg.Day,
	})
	if err != nil {
		return nil, err
	}
	t := run.Ctrl.Tracker
	res := &Fig12Result{RO: cfg.RO}
	res.ExpNorm = t.NormPowerSeries(GExp, run.MeasureFrom)
	// Paper footnote 2: control-group power normalized to the experiment
	// group's scaled budget, so it can exceed 1.0.
	raw := t.PowerSeries(GCtrl, run.MeasureFrom)
	res.CtrlNorm = make([]float64, len(raw))
	for i, v := range raw {
		res.CtrlNorm[i] = v / run.Ctrl.ExpBudgetW
	}

	// Mean threshold from the controller's Et estimator over the window.
	etEst := run.Controller.HourlyEt(0)
	var thr stats.Summary
	for i := range res.ExpNorm {
		at := cfg.Start().Add(sim.Duration(i) * sim.Minute)
		thr.Add(1 - etEst.Estimate(at))
	}
	res.Threshold = thr.Mean()

	// Windowed throughput ratio.
	incE := t.PlacedSeries(GExp, run.MeasureFrom)
	incC := t.PlacedSeries(GCtrl, run.MeasureFrom)
	w := fig12Window
	var hiE, hiC, allE, allC int64
	for i := 0; i+w <= len(incE); i += w {
		var we, wc int64
		for j := i; j < i+w; j++ {
			we += incE[j]
			wc += incC[j]
		}
		if wc > 0 {
			res.ThruRatio = append(res.ThruRatio, float64(we)/float64(wc))
		} else {
			res.ThruRatio = append(res.ThruRatio, 1)
		}
		allE += we
		allC += wc
		// High-load: the control group's demand met or exceeded the budget
		// somewhere in the window.
		for j := i; j < i+w && j < len(res.CtrlNorm); j++ {
			if res.CtrlNorm[j] >= 0.99 {
				hiE += we
				hiC += wc
				break
			}
		}
	}
	if allC > 0 {
		res.RTOverall = float64(allE) / float64(allC)
	}
	if hiC > 0 {
		res.RTHighLoad = float64(hiE) / float64(hiC)
	}
	res.GTPW = core.GTPW(res.RTOverall, cfg.RO)
	return res, nil
}

// Table3Scenario describes one row of Table 3.
type Table3Scenario struct {
	RO float64
	// TargetFrac is the control-group steady power target (fraction of
	// rated); Pmean_normalized ≈ TargetFrac × (1 + RO).
	TargetFrac float64
	// Amplitude is the diurnal swing, varying Pmax and hence umean across
	// rows with similar means, like the paper's different days.
	Amplitude float64
}

// Table3Row is one computed row of Table 3.
type Table3Row struct {
	RO         float64
	PMean      float64 // control group, normalized to the scaled exp budget
	PMax       float64
	UMean      float64
	RThru      float64
	GTPW       float64
	Violations int // experiment group, over the measured span
}

// Table3Config parameterizes the GTPW sweep.
type Table3Config struct {
	Seed       uint64
	RowServers int
	Day
	Scenarios []Table3Scenario
}

// DefaultTable3 mirrors the paper's 13 representative days across four
// over-provisioning ratios: for each rO, days from light to heavy.
func DefaultTable3() Table3Config {
	return Table3Config{
		Seed:       13,
		RowServers: 400,
		Day:        Day{Warmup: 2 * sim.Hour, Pretrain: 24 * sim.Hour, Measure: 24 * sim.Hour},
		Scenarios: []Table3Scenario{
			{RO: 0.25, TargetFrac: 0.722, Amplitude: 0.30},
			{RO: 0.25, TargetFrac: 0.745, Amplitude: 0.45},
			{RO: 0.25, TargetFrac: 0.749, Amplitude: 0.50},
			{RO: 0.25, TargetFrac: 0.742, Amplitude: 0.65},
			{RO: 0.21, TargetFrac: 0.650, Amplitude: 0.30},
			{RO: 0.21, TargetFrac: 0.690, Amplitude: 0.30},
			{RO: 0.21, TargetFrac: 0.739, Amplitude: 0.40},
			{RO: 0.21, TargetFrac: 0.746, Amplitude: 0.60},
			{RO: 0.17, TargetFrac: 0.715, Amplitude: 0.30},
			{RO: 0.17, TargetFrac: 0.717, Amplitude: 0.30},
			{RO: 0.17, TargetFrac: 0.776, Amplitude: 0.40},
			{RO: 0.17, TargetFrac: 0.802, Amplitude: 0.50},
			{RO: 0.13, TargetFrac: 0.750, Amplitude: 0.30},
		},
	}
}

// Table3Result is the computed table.
type Table3Result struct {
	Rows []Table3Row
}

// RunTable3 reproduces Table 3: GTPW under different over-provisioning
// ratios and workload levels, with the §4.4 setup (only the experiment
// group's budget scaled).
func RunTable3(cfg Table3Config) (*Table3Result, error) {
	names := make([]string, len(cfg.Scenarios))
	for i, sc := range cfg.Scenarios {
		names[i] = fmt.Sprintf("scenario %d (ro=%.2f)", i, sc.RO)
	}
	rows, err := runUnits(names, func(i int) (Table3Row, error) {
		sc := cfg.Scenarios[i]
		run, err := RunAmpere(AmpereRunConfig{
			Controlled: ControlledConfig{
				Seed:             cfg.Seed + uint64(i)*101,
				RowServers:       cfg.RowServers,
				RestRows:         2,
				TargetPowerFrac:  sc.TargetFrac,
				RO:               sc.RO,
				ScaleCtrlBudget:  false,
				DiurnalAmplitude: sc.Amplitude,
			},
			Day: cfg.Day,
		})
		if err != nil {
			return Table3Row{}, fmt.Errorf("table3 scenario %d: %w", i, err)
		}
		t := run.Ctrl.Tracker
		raw := t.PowerSeries(GCtrl, run.MeasureFrom)
		var pc stats.Summary
		for _, v := range raw {
			pc.Add(v / run.Ctrl.ExpBudgetW)
		}
		st := run.Analyze(fmt.Sprintf("ro=%.2f", sc.RO))
		rT := run.ThroughputRatio()
		return Table3Row{
			RO:         sc.RO,
			PMean:      pc.Mean(),
			PMax:       pc.Max(),
			UMean:      st.UMean,
			RThru:      rT,
			GTPW:       core.GTPW(rT, sc.RO),
			Violations: st.ViolationsExp,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table3Result{Rows: rows}, nil
}
