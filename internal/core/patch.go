package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// PolicyPatch is an alternative policy/parameter set for counterfactual
// replay (internal/whatif): each non-nil field overrides the corresponding
// live parameter from the patched tick onward. Nil fields leave the factual
// configuration untouched, so the zero patch replays the factual run.
type PolicyPatch struct {
	// Selection swaps the freeze-candidate ordering (the paper's hottest-
	// first vs the ablation policies).
	Selection *SelectionPolicy
	// EtMode swaps every domain's Et estimator for a freshly built one of
	// the given family — including domains configured with an external
	// estimator. The new estimators start cold and retrain from the fork
	// point onward ("what if Et had been forecast differently"); replay
	// determinism is preserved because counterfactual runs rebuild from
	// genesis, so the retraining history is identical on every run.
	EtMode *EtMode
	// EtPercentile retargets every online HourlyEt estimator's percentile;
	// accumulated observations are kept.
	EtPercentile *float64
	// EtAlpha and EtBand retune the EWMA estimator (effective when EtMode
	// is, or is patched to, EtEWMA).
	EtAlpha *float64
	EtBand  *float64
	// RampFrac bounds per-tick effective-budget movement as a fraction of
	// each domain's base budget, overriding any schedule's RampFrac. 0 turns
	// ramping off (every budget change lands as a cliff).
	RampFrac *float64
	// Horizon swaps the solver: 1 = the closed-form SPCP, >1 = the exact
	// horizon-N PCP.
	Horizon *int
	// MaxFreezeRatio and RStable retune the operational freeze cap and the
	// §3.5 stability ratio.
	MaxFreezeRatio *float64
	RStable        *float64
	// Unfreeze swaps the release path; HeadroomTrigger and HeadroomStepFrac
	// retune the spare-headroom policy.
	Unfreeze         *UnfreezeMode
	HeadroomTrigger  *float64
	HeadroomStepFrac *float64
}

// Empty reports whether the patch changes nothing.
func (p PolicyPatch) Empty() bool {
	return p.Selection == nil && p.EtMode == nil && p.EtPercentile == nil &&
		p.EtAlpha == nil && p.EtBand == nil && p.RampFrac == nil &&
		p.Horizon == nil && p.MaxFreezeRatio == nil && p.RStable == nil &&
		p.Unfreeze == nil && p.HeadroomTrigger == nil && p.HeadroomStepFrac == nil
}

// String renders the patch as "key=value key=value" in a fixed field order
// (empty string for the zero patch) — the canonical form used in reports.
// whatif.ParsePatch is its inverse: %g prints the shortest representation
// that round-trips through ParseFloat.
func (p PolicyPatch) String() string {
	var parts []string
	if p.Selection != nil {
		parts = append(parts, "policy="+p.Selection.String())
	}
	if p.EtMode != nil {
		parts = append(parts, "et="+p.EtMode.String())
	}
	if p.EtPercentile != nil {
		parts = append(parts, fmt.Sprintf("et-percentile=%g", *p.EtPercentile))
	}
	if p.EtAlpha != nil {
		parts = append(parts, fmt.Sprintf("et-alpha=%g", *p.EtAlpha))
	}
	if p.EtBand != nil {
		parts = append(parts, fmt.Sprintf("et-band=%g", *p.EtBand))
	}
	if p.RampFrac != nil {
		parts = append(parts, fmt.Sprintf("ramp=%g", *p.RampFrac))
	}
	if p.Horizon != nil {
		parts = append(parts, fmt.Sprintf("horizon=%d", *p.Horizon))
	}
	if p.MaxFreezeRatio != nil {
		parts = append(parts, fmt.Sprintf("max-freeze=%g", *p.MaxFreezeRatio))
	}
	if p.RStable != nil {
		parts = append(parts, fmt.Sprintf("rstable=%g", *p.RStable))
	}
	if p.Unfreeze != nil {
		parts = append(parts, "unfreeze="+p.Unfreeze.String())
	}
	if p.HeadroomTrigger != nil {
		parts = append(parts, fmt.Sprintf("headroom-trigger=%g", *p.HeadroomTrigger))
	}
	if p.HeadroomStepFrac != nil {
		parts = append(parts, fmt.Sprintf("headroom-step=%g", *p.HeadroomStepFrac))
	}
	return strings.Join(parts, " ")
}

// apply folds the patch's non-nil fields into cfg.
func (p PolicyPatch) apply(cfg *Config) {
	if p.Selection != nil {
		cfg.Selection = *p.Selection
	}
	if p.EtMode != nil {
		cfg.EtMode = *p.EtMode
	}
	if p.EtPercentile != nil {
		cfg.EtPercentile = *p.EtPercentile
	}
	if p.EtAlpha != nil {
		cfg.EtAlpha = *p.EtAlpha
	}
	if p.EtBand != nil {
		cfg.EtBand = *p.EtBand
	}
	if p.Horizon != nil {
		cfg.Horizon = *p.Horizon
	}
	if p.MaxFreezeRatio != nil {
		cfg.MaxFreezeRatio = *p.MaxFreezeRatio
	}
	if p.RStable != nil {
		cfg.RStable = *p.RStable
	}
	if p.Unfreeze != nil {
		cfg.Unfreeze = *p.Unfreeze
	}
	if p.HeadroomTrigger != nil {
		cfg.HeadroomTrigger = *p.HeadroomTrigger
	}
	if p.HeadroomStepFrac != nil {
		cfg.HeadroomStepFrac = *p.HeadroomStepFrac
	}
}

// Reconfigure applies a policy patch to a running controller, atomically:
// everything fallible — validation, strategy resolution, estimator
// construction — happens before the first mutation, so a rejected patch is a
// true no-op (the regression suite in patch_test.go pins this). It is the
// counterfactual-replay divergence point — call it between ticks (whatif
// calls it at a snapshot boundary before resuming the event loop).
func (c *Controller) Reconfigure(p PolicyPatch) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Phase 1: resolve the candidate configuration, no mutation.
	cfg := c.cfg
	p.apply(&cfg)
	cfg = cfg.withPolicyDefaults()

	// Phase 2: validate everything and pre-build all fallible state. The
	// RampFrac check lives here too — it used to run after the estimator
	// loop had already mutated percentiles, the partial-commit bug.
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: Reconfigure: %w", err)
	}
	if p.RampFrac != nil {
		if f := *p.RampFrac; math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f > 1 {
			return fmt.Errorf("core: Reconfigure: RampFrac %v outside [0,1]", f)
		}
	}
	sel, solver, unf, err := cfg.policies()
	if err != nil {
		return fmt.Errorf("core: Reconfigure: %w", err)
	}
	var newEts []TrainableEt
	if p.EtMode != nil {
		newEts = make([]TrainableEt, len(c.domains))
		for i := range c.domains {
			tr, err := cfg.newTrainableEt()
			if err != nil {
				return fmt.Errorf("core: Reconfigure: %w", err)
			}
			newEts[i] = tr
		}
	}

	// Phase 3: commit — nothing below can fail.
	if p.EtMode != nil {
		for i, ds := range c.domains {
			ds.et, ds.trainer = newEts[i], newEts[i]
			ds.hourly = nil
			if h, ok := ds.et.(*HourlyEt); ok {
				ds.hourly = h
			}
			// havePrev is kept: the observed-increase stream is continuous
			// across the swap, so the new estimator trains from the very
			// next fresh tick.
		}
	} else if p.EtPercentile != nil {
		for _, ds := range c.domains {
			if ds.hourly != nil {
				if err := ds.hourly.SetPercentile(*p.EtPercentile); err != nil {
					// Unreachable: Validate covered the range, and a partial
					// commit here is exactly the bug this rewrite removes.
					panic(fmt.Sprintf("core: Reconfigure: validated percentile rejected: %v", err))
				}
			}
		}
	}
	if p.RampFrac != nil {
		c.rampOverride, c.haveRampOverride = *p.RampFrac, true
	}
	if cfg.Selection == SelectRandom && c.selRNG == nil {
		c.selRNG = sim.SubRNG(cfg.SelectionSeed, "controller-random-selection")
	}
	c.cfg = cfg
	c.sel, c.solver, c.unf = sel, solver, unf
	return nil
}
