package core

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// PolicyPatch is an alternative policy/parameter set for counterfactual
// replay (internal/whatif): each non-nil field overrides the corresponding
// live parameter from the patched tick onward. Nil fields leave the factual
// configuration untouched, so the zero patch replays the factual run. The
// fields are the policyAxes rows a patch may set; what each means is there.
type PolicyPatch struct {
	Selection    *SelectionPolicy
	EtMode       *EtMode
	EtPercentile *float64
	EtAlpha      *float64
	EtBand       *float64
	// RampFrac is the one field without a Config twin: Reconfigure keeps it
	// on the controller, above any schedule's RampFrac.
	RampFrac         *float64
	Horizon          *int
	MaxFreezeRatio   *float64
	RStable          *float64
	Unfreeze         *UnfreezeMode
	HeadroomTrigger  *float64
	HeadroomStepFrac *float64
}

// Empty reports whether the patch changes nothing.
func (p PolicyPatch) Empty() bool { return p == PolicyPatch{} }

// String renders the patch as "key=value key=value" in policyAxes order
// (empty string for the zero patch) — the canonical form used in reports.
// ParsePatch is its inverse: %g prints the shortest representation that
// round-trips through ParseFloat.
func (p PolicyPatch) String() string {
	var parts []string
	for _, a := range policyAxes {
		if !a.Patch {
			continue
		}
		if text, set := a.patchText(&p); set {
			parts = append(parts, a.PatchKey()+"="+text)
		}
	}
	return strings.Join(parts, " ")
}

// Apply folds the patch's non-nil fields into cfg, and reports a value that
// has no Config field to carry it to Validate and is out of range.
func (p PolicyPatch) Apply(cfg *Config) error {
	for _, a := range policyAxes {
		if !a.Patch {
			continue
		}
		if err := a.patchApply(&p, cfg); err != nil {
			return err
		}
	}
	return nil
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
	// Apply judges RampFrac, which no Config field carries to Validate — it
	// used to be checked after the estimator loop had already mutated
	// percentiles, the partial-commit bug.
	if err := p.Apply(&cfg); err != nil {
		return fmt.Errorf("core: Reconfigure: %w", err)
	}
	cfg = cfg.withPolicyDefaults()

	// Phase 2: validate everything and pre-build all fallible state.
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: Reconfigure: %w", err)
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
