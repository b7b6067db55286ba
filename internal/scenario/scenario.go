// Package scenario builds complete simulation deployments from a
// declarative, JSON-serializable description: topology, workload,
// protection mechanisms (Ampere / DVFS capping / PDU breakers), row shaping
// and duration. cmd/ampere-sim is a thin flag/JSON wrapper around it;
// tests and notebooks can construct Specs directly.
package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/breaker"
	"repro/internal/capping"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Product describes one workload component.
type Product struct {
	Name string `json:"name"`
	// JobsPerMinute is the mean arrival rate; when zero, TargetFrac drives
	// a calibrated rate instead.
	JobsPerMinute float64 `json:"jobs_per_minute,omitempty"`
	// TargetFrac calibrates the rate to a steady power fraction of rated
	// across the product's rows.
	TargetFrac float64   `json:"target_frac,omitempty"`
	PeakHour   float64   `json:"peak_hour,omitempty"`
	Amplitude  float64   `json:"amplitude,omitempty"`
	RowWeights []float64 `json:"row_weights,omitempty"`
}

// Spec is a complete scenario description.
type Spec struct {
	Seed       uint64 `json:"seed"`
	Rows       int    `json:"rows"`
	RowServers int    `json:"row_servers"`
	// WarmupHours precede the measured window (0 means the default 2).
	// Both spans are at most ten years (MaxEventMinutes).
	WarmupHours int `json:"warmup_hours,omitempty"`
	Hours       int `json:"hours"`

	// Workload: either explicit products, or a single calibrated product
	// via TargetFrac (+Amplitude).
	Products   []Product `json:"products,omitempty"`
	TargetFrac float64   `json:"target_frac,omitempty"`
	Amplitude  float64   `json:"amplitude,omitempty"`

	// RO scales each row's enforced budget to rated/(1+RO).
	RO float64 `json:"ro"`

	// BudgetSchedule makes the enforced budget time-varying — piecewise-
	// constant PM(t) with optional ramp-rate limiting (requires Ampere).
	BudgetSchedule *BudgetSchedule `json:"budget_schedule,omitempty"`
	// DemandResponse lists grid curtailment events layered multiplicatively
	// on the scheduled budget (requires Ampere).
	DemandResponse []DemandResponse `json:"demand_response,omitempty"`

	// ControlPolicy configures the Ampere controller's strategy axes —
	// selection, Et estimator family, solver horizon, release path (see
	// policy.go). Requires Ampere.
	ControlPolicy *PolicySpec `json:"control_policy,omitempty"`

	// Protections.
	Ampere  bool    `json:"ampere"`
	Capping bool    `json:"capping"`
	Breaker bool    `json:"breaker"`
	Kr      float64 `json:"kr,omitempty"`
	// RepairMinutes is the outage length after a breaker trip before the
	// row is powered back on (0 means the default 30).
	RepairMinutes int `json:"repair_minutes,omitempty"`

	// RowShaping names the scheduler's row shaping:
	// proportional (the default)|balance-rows|concentrate-rows.
	RowShaping string `json:"row_chooser,omitempty"`
}

// Load parses a JSON spec, rejecting unknown fields (typos in config files
// should fail loudly).
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Decode stops at the end of the first JSON value; anything after it is
	// a malformed config, not padding.
	if tok, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec (%v, %v)", tok, err)
	}
	return &s, nil
}

// Validate reports specification errors.
func (s *Spec) Validate() error {
	switch {
	case s.Rows <= 0:
		return fmt.Errorf("scenario: rows %d must be positive", s.Rows)
	case s.RowServers <= 0 || s.RowServers%20 != 0:
		return fmt.Errorf("scenario: row_servers %d must be a positive multiple of 20", s.RowServers)
	case s.Hours <= 0:
		return fmt.Errorf("scenario: hours %d must be positive", s.Hours)
	case s.Hours > maxHours:
		return fmt.Errorf("scenario: hours %d above the %d-hour bound", s.Hours, maxHours)
	case s.WarmupHours < 0 || s.WarmupHours > maxHours:
		return fmt.Errorf("scenario: warmup_hours %d outside [0,%d]", s.WarmupHours, maxHours)
	case s.RepairMinutes < 0:
		return fmt.Errorf("scenario: negative repair_minutes %d", s.RepairMinutes)
	case s.RO < 0:
		return fmt.Errorf("scenario: negative ro %v", s.RO)
	case len(s.Products) == 0 && (s.TargetFrac <= 0 || s.TargetFrac > 1):
		return fmt.Errorf("scenario: need products or target_frac in (0,1], got %v", s.TargetFrac)
	case s.Kr < 0:
		return fmt.Errorf("scenario: negative kr %v", s.Kr)
	case !(s.Amplitude <= 1):
		// Above 1 the trough's arrival rate clamps to 0 and the mean load
		// exceeds target_frac; the generator refuses it.
		return fmt.Errorf("scenario: amplitude %v above 1", s.Amplitude)
	}
	for i, p := range s.Products {
		if p.JobsPerMinute <= 0 && (p.TargetFrac <= 0 || p.TargetFrac > 1) {
			return fmt.Errorf("scenario: product %d (%s) needs jobs_per_minute or target_frac", i, p.Name)
		}
		if !(p.Amplitude <= 1) {
			return fmt.Errorf("scenario: product %d (%s) has amplitude %v above 1", i, p.Name, p.Amplitude)
		}
		if p.RowWeights != nil && len(p.RowWeights) != s.Rows {
			return fmt.Errorf("scenario: product %d (%s) has %d row weights for %d rows",
				i, p.Name, len(p.RowWeights), s.Rows)
		}
		for r, w := range p.RowWeights {
			if !(w >= 0) || math.IsInf(w, 1) {
				return fmt.Errorf("scenario: product %d (%s) has row weight %v for row %d, want a finite number ≥ 0", i, p.Name, w, r)
			}
		}
	}
	if _, err := s.shaping(); err != nil {
		return err
	}
	if s.ControlPolicy != nil {
		if !s.Ampere {
			return fmt.Errorf("scenario: control_policy requires ampere")
		}
		ccfg, err := s.ControlPolicy.config()
		if err != nil {
			return err
		}
		if err := ccfg.Validate(); err != nil {
			return fmt.Errorf("scenario: control_policy: %w", err)
		}
	}
	return s.validateBudget()
}

// maxHours bounds hours and warmup_hours to MaxEventMinutes, so the run's
// end time stays far inside sim.Time.
const maxHours = MaxEventMinutes / 60

func (s *Spec) shaping() (scheduler.RowShaping, error) {
	if s.RowShaping == "" {
		return scheduler.Proportional, nil
	}
	rs, ok := scheduler.ParseRowShaping(s.RowShaping)
	if !ok {
		return 0, fmt.Errorf("scenario: unknown row_chooser %q", s.RowShaping)
	}
	return rs, nil
}

// window returns the warm-up length and the absolute end of the measured
// hours.
func (s *Spec) window() (warmup sim.Duration, end sim.Time) {
	warmup = 2 * sim.Hour
	if s.WarmupHours > 0 {
		warmup = sim.Duration(s.WarmupHours) * sim.Hour
	}
	return warmup, sim.Time(warmup) + sim.Time(s.Hours)*sim.Time(sim.Hour)
}

// Built is an assembled, not-yet-run scenario: its row fleet, and the
// tracker that judges each row against the budget in force.
type Built struct {
	Spec *Spec
	*fleet.Fleet
	Tracker *experiment.Tracker
	// Trips counts breaker trips across the run (rows repair and can trip
	// again).
	Trips  int
	warmup sim.Duration
	end    sim.Time
}

// Build assembles every component of the spec.
func (s *Spec) Build() (*Built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	spec := stack.RowSpec(s.Rows, s.RowServers)

	var products []workload.Product
	var weights [][]float64
	specs := s.Products
	if len(specs) == 0 {
		specs = []Product{{Name: "mixed", TargetFrac: s.TargetFrac, Amplitude: s.Amplitude}}
	}
	for _, ps := range specs {
		rate := ps.JobsPerMinute
		if rate <= 0 {
			rows := s.Rows
			if ps.RowWeights != nil {
				rows = 0
				for _, w := range ps.RowWeights {
					if w > 0 {
						rows++
					}
				}
			}
			rate = stack.JobsPerMinute(spec, ps.TargetFrac, rows*s.RowServers)
		}
		p := workload.DefaultProduct(ps.Name, rate)
		if ps.Amplitude > 0 {
			p.DiurnalAmplitude = ps.Amplitude
		}
		if ps.PeakHour > 0 {
			p.PeakHour = ps.PeakHour
		}
		products = append(products, p)
		weights = append(weights, ps.RowWeights)
	}

	b := &Built{Spec: s}
	b.warmup, b.end = s.window()
	budget := spec.RowRatedPowerW() / (1 + s.RO)
	f := &fleet.Fleet{
		Stack:      stack.Config{Seed: s.Seed, Cluster: spec, Products: products, ProductWeights: weights},
		RowBudgetW: budget,
		RowName:    "row/%d",
	}
	if s.Ampere {
		ccfg, err := s.ControlPolicy.config()
		if err != nil {
			return nil, err
		}
		f.Control = &fleet.Control{Rows: s.Rows, Margin: 1, Kr: cmp.Or(s.Kr, stack.DefaultKr), Config: ccfg,
			Schedule: func(r int) *core.BudgetSchedule { return s.compileBudgetSchedule(r, budget, b.warmup) }}
	}
	if s.Capping {
		f.Capping = &fleet.Capping{Rows: s.Rows, Config: capping.DefaultConfig()}
	}
	if s.Breaker {
		bcfg := breaker.DefaultConfig(budget)
		f.Breaker = &bcfg
	}
	if err := f.Build(); err != nil {
		return nil, err
	}
	b.Fleet = f
	shaping, err := s.shaping()
	if err != nil {
		return nil, err
	}
	f.Rig.Sched.SetRowShaping(shaping)

	groups := make([]experiment.Group, s.Rows)
	for r := range groups {
		groups[r] = experiment.Group{Name: fmt.Sprintf("row/%d", r), IDs: f.Rig.Cluster.RowIDs(r), BudgetW: budget}
	}
	if b.Tracker, err = experiment.NewTracker(f.Rig, groups); err != nil {
		return nil, err
	}
	if f.Controller != nil {
		// The tracker judges violations against the budget in force (the
		// fleet moves the breakers and the capper with it).
		f.Controller.OnBudgetChange(func(bc core.BudgetChange) {
			b.Tracker.SetGroupBudget(bc.Domain, bc.NewW)
		})
	}
	repair := sim.Duration(cmp.Or(s.RepairMinutes, 30)) * sim.Minute
	for r, brk := range f.Breakers {
		ids := groups[r].IDs
		brk.OnTrip(func(sim.Time) {
			b.Trips++
			for _, id := range ids {
				_ = f.Rig.Sched.FailServer(id)
			}
			f.Rig.Eng.After(repair, "row-repair", func(sim.Time) {
				for _, id := range ids {
					_ = f.Rig.Sched.RepairServer(id)
				}
				brk.Reset()
			})
		})
	}
	return b, nil
}

// Run starts everything in deterministic order and advances through warmup
// plus the measured hours.
func (b *Built) Run() error {
	b.Rig.StartBase()
	b.Fleet.Start()
	return b.Rig.Run(b.end)
}

// Report writes the scenario summary.
func (b *Built) Report(w io.Writer) {
	s := b.Spec
	fmt.Fprintf(w, "scenario: %d×%d servers, %dh, rO %.2f, ampere=%v capping=%v breaker=%v\n",
		s.Rows, s.RowServers, s.Hours, s.RO, s.Ampere, s.Capping, s.Breaker)
	fmt.Fprintf(w, "row budget: %.0f W (rated %.0f W)\n\n", b.RowBudgetW, b.Rig.Cluster.Spec.RowRatedPowerW())
	from := b.Tracker.IndexAt(sim.Time(b.warmup))
	for r := 0; r < s.Rows; r++ {
		var sum stats.Summary
		for _, v := range b.Tracker.NormPowerSeries(r, from) {
			sum.Add(v)
		}
		fmt.Fprintf(w, "row %d: P mean/max %.3f/%.3f  violations %d/%d  throughput %d\n",
			r, sum.Mean(), sum.Max(), b.Tracker.Violations(r, from), sum.N(),
			b.Tracker.PlacedBetween(r, from, -1))
		if b.Controller != nil {
			st := b.Controller.Stats(r)
			fmt.Fprintf(w, "       ampere: u mean/max %.3f/%.3f freezes %d errors %d\n",
				st.UMean(), st.UMax, st.FreezeOps, st.APIErrors)
		}
		if b.Capper != nil {
			st := b.Capper.Stats(r)
			frac := 0.0
			if st.ServerSamples > 0 {
				frac = float64(st.CappedServerSamples) / float64(st.ServerSamples)
			}
			fmt.Fprintf(w, "       capping: %.1f%% server-intervals capped\n", frac*100)
		}
		if b.Breakers != nil {
			if tripped, at := b.Breakers[r].Tripped(); tripped {
				fmt.Fprintf(w, "       BREAKER OPEN since %v\n", at)
			}
		}
	}
	if b.BudgetChanges > 0 {
		fmt.Fprintf(w, "\nbudget changes applied: %d\n", b.BudgetChanges)
	}
	if b.Trips > 0 {
		fmt.Fprintf(w, "\nbreaker trips: %d\n", b.Trips)
	}
	st := b.Rig.Sched.Stats()
	fmt.Fprintf(w, "\nscheduler: submitted %d placed %d completed %d queued %d killed %d (queue %d)\n",
		st.Submitted, st.Placed, st.Completed, st.Queued, st.Killed, b.Rig.Sched.QueueLen())
	if st.Queued > 0 {
		fmt.Fprintf(w, "queue wait p50/p99: %v / %v over %d waits\n",
			b.Rig.Sched.QueueWaitQuantile(0.5), b.Rig.Sched.QueueWaitQuantile(0.99),
			b.Rig.Sched.QueueWaits())
	}
}
