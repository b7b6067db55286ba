package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// This file is the declarative face of core's time-varying budgets: a spec
// can schedule PM(t) as piecewise-constant fractions of the row budget and
// overlay demand-response events (grid curtailments), and Build compiles
// both into one core.BudgetSchedule per row. Minutes are measured from the
// end of warmup, where the scenario's measured window starts.

// BudgetStep pins the scheduled budget to Frac × the row budget from
// AtMinutes (after warmup) onward, until the next step.
type BudgetStep struct {
	AtMinutes float64 `json:"at_minutes"`
	Frac      float64 `json:"frac"`
}

// BudgetSchedule is the spec-level PM(t): piecewise-constant steps plus
// optional ramp-rate limiting, applied to every row.
type BudgetSchedule struct {
	Steps []BudgetStep `json:"steps,omitempty"`
	// RampFrac bounds effective-budget movement per control tick as a
	// fraction of the row budget (see core.BudgetSchedule.RampFrac). It also
	// applies to demand-response events.
	RampFrac float64 `json:"ramp_frac,omitempty"`
}

// DemandResponse is one grid curtailment event: the budgets of Rows (every
// row when empty) are multiplied by (1−Depth) from AtMinutes for
// DwellMinutes. Events are multiplicative on the scheduled budget, and
// overlapping events compound.
type DemandResponse struct {
	AtMinutes    float64 `json:"at_minutes"`
	Depth        float64 `json:"depth"`
	DwellMinutes float64 `json:"dwell_minutes"`
	Rows         []int   `json:"rows,omitempty"`
}

// validateBudget checks the spec's schedule and demand-response events.
func (s *Spec) validateBudget() error {
	sched, drs := s.BudgetSchedule, s.DemandResponse
	if sched == nil && len(drs) == 0 {
		return nil
	}
	if !s.Ampere {
		return fmt.Errorf("scenario: budget_schedule/demand_response need ampere: the schedule is enforced by the controller")
	}
	if sched != nil {
		if bad(sched.RampFrac) || sched.RampFrac < 0 || sched.RampFrac > 1 {
			return fmt.Errorf("scenario: budget_schedule ramp_frac %v outside [0,1]", sched.RampFrac)
		}
		for i, st := range sched.Steps {
			if bad(st.AtMinutes) || st.AtMinutes < 0 || st.AtMinutes > MaxEventMinutes {
				return fmt.Errorf("scenario: budget step %d at_minutes %v outside [0,%v]", i, st.AtMinutes, float64(MaxEventMinutes))
			}
			if bad(st.Frac) || st.Frac <= 0 || st.Frac > 2 {
				return fmt.Errorf("scenario: budget step %d frac %v outside (0,2]", i, st.Frac)
			}
			if i > 0 && st.AtMinutes <= sched.Steps[i-1].AtMinutes {
				return fmt.Errorf("scenario: budget step %d at_minutes %v not after step %d", i, st.AtMinutes, i-1)
			}
		}
	}
	for i, dr := range drs {
		if bad(dr.AtMinutes) || dr.AtMinutes < 0 || dr.AtMinutes > MaxEventMinutes {
			return fmt.Errorf("scenario: demand_response %d at_minutes %v outside [0,%v]", i, dr.AtMinutes, float64(MaxEventMinutes))
		}
		if bad(dr.Depth) || dr.Depth <= 0 || dr.Depth >= 1 {
			return fmt.Errorf("scenario: demand_response %d depth %v outside (0,1)", i, dr.Depth)
		}
		if bad(dr.DwellMinutes) || dr.DwellMinutes <= 0 || dr.DwellMinutes > MaxEventMinutes {
			return fmt.Errorf("scenario: demand_response %d dwell_minutes %v outside (0,%v]", i, dr.DwellMinutes, float64(MaxEventMinutes))
		}
		for _, r := range dr.Rows {
			if r < 0 || r >= s.Rows {
				return fmt.Errorf("scenario: demand_response %d row %d outside [0,%d)", i, r, s.Rows)
			}
		}
	}
	return nil
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// MaxEventMinutes bounds schedule and event times so minute→tick conversion
// can never overflow sim.Time (10 years of minutes, far past any run).
const MaxEventMinutes = 10 * 365 * 24 * 60

// compileBudgetSchedule flattens the spec schedule and the demand-response
// events covering row into one core.BudgetSchedule over the row budget.
// Returns nil when nothing varies for this row.
func (s *Spec) compileBudgetSchedule(row int, budgetW float64, warmup sim.Duration) *core.BudgetSchedule {
	sched, drs := s.BudgetSchedule, s.DemandResponse
	rampFrac := 0.0
	var steps []BudgetStep
	if sched != nil {
		rampFrac, steps = sched.RampFrac, sched.Steps
	}
	covers := func(dr DemandResponse) bool {
		if len(dr.Rows) == 0 {
			return true
		}
		for _, r := range dr.Rows {
			if r == row {
				return true
			}
		}
		return false
	}
	// Every step edge and event edge is a boundary; the effective budget at a
	// boundary is the scheduled fraction times the product of active event
	// multipliers. Equal-budget neighbours collapse, so a spec whose events
	// miss this row compiles to the bare schedule (or nil).
	bounds := make([]float64, 0, len(steps)+2*len(drs))
	for _, st := range steps {
		bounds = append(bounds, st.AtMinutes)
	}
	active := drs[:0:0]
	for _, dr := range drs {
		if covers(dr) {
			active = append(active, dr)
			bounds = append(bounds, dr.AtMinutes, dr.AtMinutes+dr.DwellMinutes)
		}
	}
	if len(bounds) == 0 && rampFrac == 0 {
		return nil
	}
	sort.Float64s(bounds)
	out := &core.BudgetSchedule{RampFrac: rampFrac}
	prev := budgetW
	for i, m := range bounds {
		if i > 0 && m == bounds[i-1] {
			continue
		}
		frac := 1.0
		for _, st := range steps {
			if st.AtMinutes > m {
				break
			}
			frac = st.Frac
		}
		for _, dr := range active {
			if dr.AtMinutes <= m && m < dr.AtMinutes+dr.DwellMinutes {
				frac *= 1 - dr.Depth
			}
		}
		w := frac * budgetW
		if w == prev {
			continue
		}
		at := sim.Time(warmup) + sim.Time(m*float64(sim.Minute))
		// Distinct fractional minutes can truncate to the same tick; the
		// later boundary wins so core's strictly-increasing invariant holds.
		if n := len(out.Steps); n > 0 && at <= out.Steps[n-1].At {
			out.Steps[n-1].BudgetW = w
			prev = w
			continue
		}
		out.Steps = append(out.Steps, core.BudgetStep{At: at, BudgetW: w})
		prev = w
	}
	if len(out.Steps) == 0 && rampFrac == 0 {
		return nil
	}
	return out
}
