package core

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// The paper enforces a constant budget PM. In a grid-coordinated deployment
// PM itself moves: utility curtailment events, price/carbon signals, and
// planned maintenance all retarget the enforceable draw, and the controller
// must track the moving budget without tripping the feed's protection. This
// file makes the budget a first-class time-varying input: each domain's
// *effective* budget starts at Domain.BudgetW and is re-resolved every tick
// against a declarative schedule and/or a validated runtime override, with
// optional ramp-rate limiting so a deep dip is applied over several ticks
// (the UPS rides through the gap) instead of as a cliff.

// BudgetStep is one piecewise-constant segment boundary of PM(t): from At
// onward the scheduled budget is BudgetW, until the next step.
type BudgetStep struct {
	At      sim.Time
	BudgetW float64
}

// BudgetSchedule is a piecewise-constant PM(t) with optional ramp-rate
// limiting. Before the first step the scheduled budget is the domain's base
// BudgetW. The schedule is read-only once the controller is built, so one
// schedule may be shared across domains.
type BudgetSchedule struct {
	// Steps, sorted by strictly increasing At, pin the scheduled budget.
	Steps []BudgetStep
	// RampFrac bounds how fast the *effective* budget may move per control
	// tick, as a fraction of the domain's base BudgetW: 0 applies every
	// change as a cliff, 0.02 spreads a 20 % dip over ten ticks. The limit
	// applies to all effective-budget movement — scheduled steps and
	// runtime SetBudget overrides, dips and restores alike.
	RampFrac float64
}

// Validate reports schedule errors against the domain's base budget.
func (s *BudgetSchedule) Validate(baseW float64) error {
	if math.IsNaN(s.RampFrac) || math.IsInf(s.RampFrac, 0) || s.RampFrac < 0 || s.RampFrac > 1 {
		return fmt.Errorf("core: budget schedule RampFrac %v outside [0,1]", s.RampFrac)
	}
	for i, st := range s.Steps {
		if math.IsNaN(st.BudgetW) || math.IsInf(st.BudgetW, 0) || st.BudgetW <= 0 {
			return fmt.Errorf("core: budget step %d at %v has BudgetW %v, need a finite positive wattage",
				i, st.At, st.BudgetW)
		}
		if st.At < 0 {
			return fmt.Errorf("core: budget step %d has negative time %v", i, st.At)
		}
		if i > 0 && st.At <= s.Steps[i-1].At {
			return fmt.Errorf("core: budget step %d at %v is not after step %d at %v",
				i, st.At, i-1, s.Steps[i-1].At)
		}
	}
	_ = baseW
	return nil
}

// TargetAt returns the scheduled PM(t): the budget of the last step at or
// before now, or base before the first step.
func (s *BudgetSchedule) TargetAt(now sim.Time, base float64) float64 {
	target := base
	for _, st := range s.Steps {
		if st.At > now {
			break
		}
		target = st.BudgetW
	}
	return target
}

// BudgetChange describes one movement of a domain's effective budget,
// delivered to the OnBudgetChange callback by the tick that applied it, in
// domain-index order.
type BudgetChange struct {
	// Domain is the domain's index in the controller's domain list; Name is
	// its configured name.
	Domain int
	Name   string
	// OldW and NewW bracket this tick's effective-budget movement; TargetW
	// is where the ramp is heading (equal to NewW once the ramp completes).
	OldW, NewW, TargetW float64
	Time                sim.Time
}

// OnBudgetChange registers fn to be called on every effective-budget
// movement, from the tick that applied it, before that tick's first scheduler
// call. Use it to keep co-located protection (breakers) and measurement
// (trackers) in agreement with the enforced budget. Call before Start; every
// registered callback runs, in registration order.
func (c *Controller) OnBudgetChange(fn func(BudgetChange)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onBudget = append(c.onBudget, fn)
}

// SetBudget retargets domain i's budget at runtime — the validated path a
// demand-response signal or an operator takes. The new target overrides any
// schedule until ClearBudget; the effective budget moves toward it on the
// next tick, ramp-limited when the domain's schedule sets RampFrac.
func (c *Controller) SetBudget(i int, w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
		return fmt.Errorf("core: SetBudget %v, need a finite positive wattage", w)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.domains) {
		return fmt.Errorf("core: SetBudget domain %d out of range [0,%d)", i, len(c.domains))
	}
	ds := c.domains[i]
	if w > ds.maxBudgetW {
		return fmt.Errorf("core: SetBudget %v exceeds domain %q's plausible ceiling %v (%gx base)",
			w, ds.d.Name, ds.maxBudgetW, maxBudgetFactor)
	}
	ds.overrideW, ds.haveOverride = w, true
	return nil
}

// maxBudgetFactor bounds runtime budget raises: a fat-fingered SetBudget an
// order of magnitude above the provisioned budget would silently disable
// control, so anything above this multiple of the base budget is rejected.
const maxBudgetFactor = 2.0

// ClearBudget removes domain i's runtime override, returning budget control
// to the schedule (or the base BudgetW).
func (c *Controller) ClearBudget(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.domains) {
		return fmt.Errorf("core: ClearBudget domain %d out of range [0,%d)", i, len(c.domains))
	}
	c.domains[i].haveOverride = false
	return nil
}

// EffectiveBudget returns domain i's currently enforced budget in watts.
func (c *Controller) EffectiveBudget(i int) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.domains[i].budget
}

// budgetTarget resolves the domain's budget target at now. Callers hold mu.
func (c *Controller) budgetTarget(ds *domainState, now sim.Time) float64 {
	switch {
	case ds.haveOverride:
		return ds.overrideW
	case ds.d.Schedule != nil:
		return ds.d.Schedule.TargetAt(now, ds.d.BudgetW)
	}
	return ds.d.BudgetW
}

// moveBudget re-resolves the domain's effective budget at the top of its
// tick, moving it toward the current target under the schedule's ramp limit
// and keeping the old value in budgetPrev for announceBudget.
func (c *Controller) moveBudget(ds *domainState, now sim.Time) {
	ds.budgetPrev = ds.budget
	target := c.budgetTarget(ds, now)
	ds.budgetTargetW = target
	if ds.budget == target {
		return
	}
	step := target - ds.budget
	// A Reconfigure ramp override takes precedence over the schedule's
	// RampFrac; either way a zero limit applies the change as a cliff.
	var limit float64
	if c.haveRampOverride {
		limit = c.rampOverride * ds.d.BudgetW
	} else if ds.d.Schedule != nil {
		limit = ds.d.Schedule.RampFrac * ds.d.BudgetW
	}
	if limit > 0 {
		if step > limit {
			step = limit
		} else if step < -limit {
			step = -limit
		}
	}
	ds.budget += step
	// Normalized state recorded under the previous budget — the degraded
	// fallback's last-known-good power and the Et trainer's previous sample —
	// is rescaled so it keeps describing the same wattage under the new
	// normalization (otherwise a dip would make stale data look 20 % cooler
	// than it was, and Et would train on a phantom budget-change delta).
	if ds.haveGood {
		ds.lastGoodP *= ds.budgetPrev / ds.budget
	}
	if ds.havePrev {
		ds.prevP *= ds.budgetPrev / ds.budget
	}
}

// announceBudget tells the callbacks and the journal that this tick moved the
// effective budget. It runs once the tick has classified its reading and
// before it acts (see tick).
func (c *Controller) announceBudget(ds *domainState, now sim.Time) {
	if ds.budget == ds.budgetPrev {
		return
	}
	for _, fn := range c.onBudget {
		fn(BudgetChange{
			Domain: ds.index, Name: ds.d.Name,
			OldW: ds.budgetPrev, NewW: ds.budget, TargetW: ds.budgetTargetW,
			Time: now,
		})
	}
	if c.ins != nil && c.ins.journal != nil {
		c.ins.journal.Append(obsBudgetEvent(ds, now))
	}
}
