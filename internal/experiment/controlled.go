package experiment

import (
	"fmt"
	"sort"

	"repro/internal/capping"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// ControlledConfig describes a §4.1.2 controlled experiment: one experiment
// row whose servers are parity-split into experiment and control groups,
// plus "rest of data center" rows that absorb displaced jobs — in the
// paper's production deployment the row is a small slice of a
// datacenter-wide scheduling pool, so jobs driven away from frozen servers
// scatter outside the row rather than contaminating the sibling group.
type ControlledConfig struct {
	Seed uint64
	// RowServers is the experiment row size (the paper's row has 400+).
	RowServers int
	// RestRows is the number of identical rest-of-DC rows, at least one.
	RestRows int
	// TargetPowerFrac steers the uncontrolled (control group) power to this
	// fraction of rated power: the workload knob ("light" ≈ 0.86, "heavy"
	// ≈ 0.97 of the scaled budget).
	TargetPowerFrac float64
	// RO is the over-provisioning ratio; group budgets are emulated as
	// rated/(1+RO) per Eq. 16.
	RO float64
	// ScaleCtrlBudget also scales the control group's budget (the §4.2
	// setup); otherwise only the experiment group's budget is scaled (the
	// §4.4 setup) and the control group's is its rated power.
	ScaleCtrlBudget bool
	// DiurnalAmplitude overrides the workload's daily swing (default 0.35).
	DiurnalAmplitude float64
	// PeakHour overrides the hour of day at which load peaks (default 14).
	PeakHour float64
	// DiurnalPeriodHours overrides the load sinusoid's period (default 24).
	DiurnalPeriodHours float64
	// MonitorDropRate injects monitor sweep failures (resilience tests).
	MonitorDropRate float64
	// RatedJitter introduces per-server rated/idle power variance
	// (cluster.Spec.RatedJitterFrac).
	RatedJitter float64
}

// Controlled is an assembled controlled experiment.
type Controlled struct {
	Rig     *stack.Stack
	Groups  Groups
	Tracker *Tracker
	// ExpBudgetW and CtrlBudgetW are the (possibly scaled) group budgets.
	ExpBudgetW  float64
	CtrlBudgetW float64
	// GroupRatedW is the unscaled rated power of each group (they are the
	// same size by construction).
	GroupRatedW float64
}

// Indices of the tracked groups.
const (
	GExp  = 0
	GCtrl = 1
)

// NewControlled assembles the rig: experiment row plus rest rows, a single
// uniform product calibrated to TargetPowerFrac, parity groups, and a
// tracker with scaled budgets.
func NewControlled(cfg ControlledConfig) (*Controlled, error) {
	if cfg.RowServers <= 0 || cfg.RowServers%40 != 0 {
		return nil, fmt.Errorf("experiment: RowServers %d must be a positive multiple of 40", cfg.RowServers)
	}
	if cfg.TargetPowerFrac <= 0 || cfg.TargetPowerFrac > 1 {
		return nil, fmt.Errorf("experiment: TargetPowerFrac %v outside (0,1]", cfg.TargetPowerFrac)
	}
	if cfg.RO < 0 {
		return nil, fmt.Errorf("experiment: negative over-provisioning ratio %v", cfg.RO)
	}
	if cfg.RestRows < 1 {
		return nil, fmt.Errorf("experiment: RestRows %d, need at least one rest-of-DC row", cfg.RestRows)
	}

	spec := stack.RowSpec(1+cfg.RestRows, cfg.RowServers)
	spec.RatedJitterFrac = cfg.RatedJitter

	product := workload.DefaultProduct("mixed",
		stack.JobsPerMinute(spec, cfg.TargetPowerFrac, spec.TotalServers()))
	// Milder surges than the generator default: the paper's controlled row
	// sees 1-minute power changes within ±2.5 % for 99 % of minutes
	// (Fig 9); violent surges would not be preventable by any controller
	// acting at 1-minute granularity.
	product.SurgeProb = 0.003
	product.SurgeMinMult = 1.2
	product.SurgeMaxMult = 1.8
	product.SurgeMaxMinutes = 6
	// The production rows swing hard over a day (Fig 8 spans ≈ 25 % of
	// peak); the compressed idle-to-rated power band means utilization has
	// to swing much more than power, hence the large default amplitude.
	product.DiurnalAmplitude = 0.35
	if cfg.DiurnalAmplitude > 0 {
		product.DiurnalAmplitude = cfg.DiurnalAmplitude
	}
	if cfg.PeakHour > 0 {
		product.PeakHour = cfg.PeakHour
	}
	if cfg.DiurnalPeriodHours > 0 {
		product.PeriodHours = cfg.DiurnalPeriodHours
	}

	rig, err := stack.New(stack.Config{
		Seed:            cfg.Seed,
		Cluster:         spec,
		Products:        []workload.Product{product},
		MonitorDropRate: cfg.MonitorDropRate,
	})
	if err != nil {
		return nil, err
	}

	groups := SplitByParity(rig.Cluster.Row(0))
	groupRated := float64(len(groups.Exp)) * spec.RatedPowerW
	expBudget := groupRated / (1 + cfg.RO)
	ctrlBudget := groupRated
	if cfg.ScaleCtrlBudget {
		ctrlBudget = groupRated / (1 + cfg.RO)
	}

	tracker, err := NewTracker(rig, []Group{
		{Name: "exp", IDs: groups.Exp, BudgetW: expBudget},
		{Name: "ctrl", IDs: groups.Ctrl, BudgetW: ctrlBudget},
	})
	if err != nil {
		return nil, err
	}
	return &Controlled{
		Rig:         rig,
		Groups:      groups,
		Tracker:     tracker,
		ExpBudgetW:  expBudget,
		CtrlBudgetW: ctrlBudget,
		GroupRatedW: groupRated,
	}, nil
}

// Day is the §4.1.2 controlled day every controlled experiment runs: the
// base load warms up for Warmup, runs unprotected for Pretrain while it
// collects the power history Et trains on, then a protection attaches and
// the Measure span runs.
type Day struct{ Warmup, Pretrain, Measure sim.Duration }

// Start is the moment the protection attaches, Warmup+Pretrain.
func (d Day) Start() sim.Time { return sim.Time(d.Warmup + d.Pretrain) }

// Run drives the day: the base load to d.Start(), then protect (nil runs
// the day unprotected), then the measured span. It returns the tracker
// sample index where the measured span begins; the scheduler's job-slowdown
// statistics are scoped to that span.
func (c *Controlled) Run(d Day, protect func() error) (measureFrom int, err error) {
	if d.Warmup < 0 || d.Pretrain < 0 || d.Measure <= 0 {
		return 0, fmt.Errorf("experiment: day %+v needs non-negative spans and a positive Measure", d)
	}
	c.Rig.StartBase()
	if err := c.Rig.Run(d.Start()); err != nil {
		return 0, err
	}
	if protect != nil {
		if err := protect(); err != nil {
			return 0, err
		}
	}
	measureFrom = c.Tracker.Samples()
	c.Rig.Sched.ResetStretchStats()
	return measureFrom, c.Rig.Run(d.Start().Add(d.Measure))
}

// Ampere is the protection most days attach: Et trained on d's pretrain
// span (see TrainEt), then a started controller over Domain(row, et).
func (c *Controlled) Ampere(d Day, row bool, cfg core.Config) (*core.Controller, error) {
	et, err := c.TrainEt(row, sim.Time(d.Warmup), cfg.EtPercentile)
	if err != nil {
		return nil, err
	}
	ctl, err := core.New(c.Rig.Eng, c.Rig.Mon, c.Rig.Sched, cfg, []core.Domain{c.Domain(row, et)})
	if err != nil {
		return nil, err
	}
	ctl.Start()
	return ctl, nil
}

// Domain is the controller domain for the experiment group under its
// budget, or with row for the whole experiment row under the sum of both
// groups' budgets.
func (c *Controlled) Domain(row bool, et core.EtEstimator) core.Domain {
	d := core.Domain{Name: "exp-group", Servers: c.Groups.Exp, BudgetW: c.ExpBudgetW, Kr: DefaultKr, Et: et}
	if row {
		d.Name, d.Servers, d.BudgetW = "row/0", c.Rig.Cluster.RowIDs(0), c.ExpBudgetW+c.CtrlBudgetW
	}
	return d
}

// dayHour wraps an hour count into (0, 24]: midnight is hour 24, the same
// diurnal phase as 0, which ControlledConfig.PeakHour reads as unset.
func dayHour(h float64) float64 {
	for h > 24 {
		h -= 24
	}
	return h
}

// RowCapper builds the DVFS capper over the same row and budget as
// Domain(true, …).
func (c *Controlled) RowCapper(cfg capping.Config) (*capping.Capper, error) {
	return capping.New(c.Rig.Eng, cfg, []capping.Domain{
		{Name: "row/0", Servers: c.Rig.Cluster.Row(0), BudgetW: c.ExpBudgetW + c.CtrlBudgetW},
	})
}

// TrainEt pre-trains the controller's Et on the tracker's history since from:
// the control group's power — the same demand process the experiment group
// sees — normalized to the experiment group's budget, or with wholeRow the
// row's power normalized to the row's budget.
func (c *Controlled) TrainEt(wholeRow bool, from sim.Time, percentile float64) (*core.HourlyEt, error) {
	i := c.Tracker.IndexAt(from)
	ctrl, budget := c.Tracker.PowerSeries(GCtrl, i), c.ExpBudgetW
	norm := make([]float64, len(ctrl))
	copy(norm, ctrl)
	if wholeRow {
		budget += c.CtrlBudgetW
		for k, exp := range c.Tracker.PowerSeries(GExp, i) {
			norm[k] += exp
		}
	}
	for k := range norm {
		norm[k] /= budget
	}
	return TrainEtFromSeries(norm, from, percentile, 0.03)
}

// FreezeTop freezes the k hottest experiment-group servers by the monitor's
// latest samples, returning the frozen IDs; used by the Fig 4/Fig 5
// calibration procedures (manual control, no Ampere).
func (c *Controlled) FreezeTop(k int) ([]cluster.ServerID, error) {
	ranked := append([]cluster.ServerID(nil), c.Groups.Exp...)
	power := func(id cluster.ServerID) float64 {
		p, ok := c.Rig.Mon.ServerPower(id)
		if !ok {
			return -1
		}
		return p
	}
	sortIDsByPowerDesc(ranked, power)
	if k > len(ranked) {
		k = len(ranked)
	}
	frozen := make([]cluster.ServerID, 0, k)
	for _, id := range ranked[:k] {
		if err := c.Rig.Sched.Freeze(id); err != nil {
			return frozen, err
		}
		frozen = append(frozen, id)
	}
	return frozen, nil
}

// UnfreezeAll releases the given servers.
func (c *Controlled) UnfreezeAll(ids []cluster.ServerID) error {
	for _, id := range ids {
		if err := c.Rig.Sched.Unfreeze(id); err != nil {
			return err
		}
	}
	return nil
}

func sortIDsByPowerDesc(ids []cluster.ServerID, power func(cluster.ServerID) float64) {
	sort.Slice(ids, func(i, j int) bool {
		pa, pb := power(ids[i]), power(ids[j])
		if pa != pb {
			return pa > pb
		}
		return ids[i] < ids[j]
	})
}
