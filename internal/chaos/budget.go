package chaos

import (
	"repro/internal/sim"
)

// Budget storms. A BudgetDip fault curtails the power envelope itself: at
// each minute boundary inside the fault window a dip of the fault's Depth
// begins with probability Rate and lasts Dwell. The onset decisions are the
// same pure splitmix64 hashes as every other fault — a function of (plan
// seed, kind, onset minute, fault index) — so the storm schedule is
// identical whatever the controller under test does about it, and a run can
// ask for the multiplier at any time without consuming randomness.

// BudgetMultiplier returns the fraction of the full budget available at
// now: 1 with no active dip, 1−Depth of the deepest active dip otherwise.
// A dip beginning at minute m is active throughout [m, m+Dwell).
func (in *Injector) BudgetMultiplier(now sim.Time) float64 {
	deepest := 0.0
	minute := int64(sim.Minute)
	for fi, f := range in.plan.Faults {
		if f.Kind != BudgetDip || f.Depth <= deepest {
			continue
		}
		// Onset minutes m that could still cover now: m ≥ From, m < To,
		// m ≤ now, m > now − Dwell.
		lo := int64(f.From)
		if past := int64(now) - int64(f.Dwell) + 1; past > lo {
			lo = past
		}
		hi := int64(now)
		if end := int64(f.To) - 1; end < hi {
			hi = end
		}
		for m := (lo + minute - 1) / minute * minute; m <= hi; m += minute {
			if in.decide(BudgetDip, sim.Time(m), uint64(fi)+1, f.Rate) {
				deepest = f.Depth
				break
			}
		}
	}
	return 1 - deepest
}

// DriveBudget schedules a periodic driver that evaluates BudgetMultiplier
// every interval from start and calls apply(now, mult) whenever the
// multiplier changed since the previous interval (including the initial
// transition away from 1 and the restore back to it). The harness's apply
// callback is expected to push the curtailment into the controller's
// SetBudget path. Schedule the driver before starting the controller so a
// same-timestamp curtailment is visible to that tick's control decision
// (same-timestamp events run in insertion order).
func (in *Injector) DriveBudget(start sim.Time, interval sim.Duration, apply func(now sim.Time, mult float64)) sim.Handle {
	last := 1.0
	return in.eng.Every(start, interval, "chaos-budget-driver", func(now sim.Time) {
		mult := in.BudgetMultiplier(now)
		if mult < 1 {
			in.stats.CurtailedIntervals++
			if in.met != nil {
				in.met.curtailedIvals.Add(1)
			}
		}
		if mult == last {
			return
		}
		if last == 1 && mult < 1 {
			in.stats.BudgetDips++
			if in.met != nil {
				in.met.budgetDips.Add(1)
			}
		}
		last = mult
		apply(now, mult)
	})
}
