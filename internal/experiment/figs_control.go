package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AmpereRunConfig assembles one Ampere-controlled controlled experiment:
// warmup, an Et pre-training span with the controller off (the paper's
// long-term power-history collection), then a measured control span.
type AmpereRunConfig struct {
	Controlled ControlledConfig
	// Kr is the control-model gradient (0 selects DefaultKr, the value
	// calibrated by RunFig5 on the default rig).
	Kr       float64
	Warmup   sim.Duration // default 2 h
	Pretrain sim.Duration // default 24 h
	Measure  sim.Duration // default 24 h
	// Policy is laid over core.DefaultConfig, the paper's choices (the
	// ablations vary it); its Et percentile also trains the pre-trained Et.
	Policy core.PolicyPatch
}

func (c *AmpereRunConfig) setDefaults() {
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Hour
	}
	if c.Pretrain == 0 {
		c.Pretrain = 24 * sim.Hour
	}
	if c.Measure == 0 {
		c.Measure = 24 * sim.Hour
	}
}

// AmpereRun is a completed controlled run with Ampere managing the
// experiment group.
type AmpereRun struct {
	Ctrl       *Controlled
	Controller *core.Controller
	// MeasureFrom is the tracker sample index where the measured span
	// begins (the moment the controller started).
	MeasureFrom int
	// UProbe indexes the tracker probe recording the freezing ratio.
	UProbe int
}

// RunAmpere executes the full scenario and returns it ready for analysis.
func RunAmpere(cfg AmpereRunConfig) (*AmpereRun, error) {
	cfg.setDefaults()
	ccfg := core.DefaultConfig()
	ccfg.SelectionSeed = cfg.Controlled.Seed
	if err := cfg.Policy.Apply(&ccfg); err != nil {
		return nil, err
	}
	ctrl, err := NewControlled(cfg.Controlled)
	if err != nil {
		return nil, err
	}
	var controller *core.Controller
	ctrl.Tracker.AddProbe("freeze-ratio", func() float64 {
		if controller == nil {
			return 0
		}
		return controller.FreezeRatio(0)
	})

	ctrl.Rig.StartBase()
	if err := ctrl.Rig.Run(sim.Time(cfg.Warmup + cfg.Pretrain)); err != nil {
		return nil, err
	}

	// Pre-train Et from the control group's pretrain-span power history.
	et, err := ctrl.TrainEt(false, sim.Time(cfg.Warmup), ccfg.EtPercentile)
	if err != nil {
		return nil, err
	}
	controller, err = core.New(ctrl.Rig.Eng, ctrl.Rig.Mon, ctrl.Rig.Sched, ccfg,
		[]core.Domain{ctrl.AmpereDomain(cfg.Kr, et)})
	if err != nil {
		return nil, err
	}
	measureFrom := ctrl.Tracker.Samples()
	// Scope job-slowdown statistics to the measured span.
	ctrl.Rig.Sched.ResetStretchStats()
	controller.Start()
	if err := ctrl.Rig.Run(sim.Time(cfg.Warmup + cfg.Pretrain + cfg.Measure)); err != nil {
		return nil, err
	}
	return &AmpereRun{Ctrl: ctrl, Controller: controller, MeasureFrom: measureFrom, UProbe: 0}, nil
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
	u := t.ProbeSeries(r.UProbe, r.MeasureFrom)
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
		U:        t.ProbeSeries(r.UProbe, r.MeasureFrom),
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
	Kr                   float64
	Warmup               sim.Duration
	Pretrain             sim.Duration
	Measure              sim.Duration
}

// DefaultTable2 reproduces the paper's setup: 400 servers, rO = 0.25, 24 h
// per workload level.
func DefaultTable2() Table2Config {
	return Table2Config{Seed: 10, RowServers: 400, RO: 0.25, LightFrac: 0.686, HeavyFrac: 0.772}
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
	if cfg.RO == 0 {
		cfg.RO = 0.25
	}
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
			Kr:       cfg.Kr,
			Warmup:   cfg.Warmup,
			Pretrain: cfg.Pretrain,
			Measure:  cfg.Measure,
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
	Kr         float64
	Warmup     sim.Duration
	Pretrain   sim.Duration
	// Measure defaults to 4 h as in the paper's Fig 12.
	Measure sim.Duration
	// WindowMinutes aggregates throughput for the normalized-throughput
	// panel (default 10).
	WindowMinutes int
}

// DefaultFig12 matches the paper: rO = 0.25, four hours, heavy at the start.
func DefaultFig12() Fig12Config {
	return Fig12Config{Seed: 12, RowServers: 400, RO: 0.25}
}

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
	if cfg.RO == 0 {
		cfg.RO = 0.25
	}
	if cfg.Measure == 0 {
		cfg.Measure = 4 * sim.Hour
	}
	if cfg.WindowMinutes == 0 {
		cfg.WindowMinutes = 10
	}
	acfg := AmpereRunConfig{
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
		},
		Kr:       cfg.Kr,
		Warmup:   cfg.Warmup,
		Pretrain: cfg.Pretrain,
		Measure:  cfg.Measure,
	}
	acfg.setDefaults()
	// Position the load peak ≈ 30 min into the measured window so the
	// boxed high-load region opens the figure, as in the paper.
	acfg.Controlled.PeakHour = float64((acfg.Warmup+acfg.Pretrain)/sim.Hour) + 0.5

	run, err := RunAmpere(acfg)
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
		at := sim.Time(acfg.Warmup + acfg.Pretrain).Add(sim.Duration(i) * sim.Minute)
		thr.Add(1 - etEst.Estimate(at))
	}
	res.Threshold = thr.Mean()

	// Windowed throughput ratio.
	incE := t.PlacedSeries(GExp, run.MeasureFrom)
	incC := t.PlacedSeries(GCtrl, run.MeasureFrom)
	w := cfg.WindowMinutes
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
	res.GTPW = res.RTOverall*(1+cfg.RO) - 1
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
	Kr         float64
	Warmup     sim.Duration
	Pretrain   sim.Duration
	Measure    sim.Duration
	Scenarios  []Table3Scenario
}

// DefaultTable3 mirrors the paper's 13 representative days across four
// over-provisioning ratios: for each rO, days from light to heavy.
func DefaultTable3() Table3Config {
	return Table3Config{
		Seed:       13,
		RowServers: 400,
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
			Kr:       cfg.Kr,
			Warmup:   cfg.Warmup,
			Pretrain: cfg.Pretrain,
			Measure:  cfg.Measure,
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
			GTPW:       rT*(1+sc.RO) - 1,
			Violations: st.ViolationsExp,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table3Result{Rows: rows}, nil
}
