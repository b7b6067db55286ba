package core

// This file is the pluggable-policy layer. The paper fixes one policy on each
// of the control law's three axes — hottest-first freeze-candidate selection,
// the static hourly-percentile Et estimator, and the closed-form SPCP solver —
// and this layer makes each axis a small strategy interface resolved from the
// existing Config knobs, so alternatives can be compared without forking the
// controller (the -exp tournament experiment does exactly that through
// PolicyPatch). A fourth axis, the release path, shapes how fast the frozen
// set drains once the solver's target drops.
//
// Strategies are sealed: the Selector and UnfreezePolicy interfaces carry an
// unexported method, so every implementation lives in this package where the
// DESIGN.md §7 byte-identity contract is enforced. Strategies run on the
// controller goroutine under c.mu, one domain at a time in domain-index
// order, so one with cross-domain state (the random selector's one shuffle
// stream) consumes it in that order. See DESIGN.md §10 for the full contract.

import (
	"fmt"
	"math"
	"slices"
)

// Selector is the freeze-candidate selection strategy: given a domain's
// refreshed power ranking and the tick's freeze target, it drives the frozen
// set to the target through the controller's freeze/unfreeze calls.
type Selector interface {
	// Name is the canonical policy name used in specs and patches.
	Name() string
	// reconcile refreshes ds.rank (Controller.refreshRank) and orders it by
	// its preference, unfreezes the frozen servers that fell out of the
	// candidate set S (never in degraded mode), then releases or freezes
	// down or up to nfreeze. It runs on the controller goroutine under c.mu.
	reconcile(c *Controller, ds *domainState, nfreeze int, degraded bool)
}

// rankedSelector is a comparator-ordered selection policy (the paper's
// hottest-first and the coldest-first ablation). stability enables the §3.5
// augmentation, which is only meaningful for a power-descending preference.
// hot mirrors cmp for the specialized quickselect and membership tests on the
// per-server hot path (selection.go's lessPref), where the indirect
// comparator calls were a third of the tick at 100k+ servers; cmp/cmpRel
// still order the (small) candidate list. missing is the power a server
// without a usable sample ranks with, the least-preferred end of the order:
// -1 hottest-first, +Inf coldest-first (where it ties with a +Inf reading,
// broken by ID as every tie is).
type rankedSelector struct {
	name      string
	hot       bool                       // hottest-first preference
	cmp       func(a, b serverPower) int // freeze-preference order
	cmpRel    func(a, b serverPower) int // release (reverse) order
	stability bool
	missing   float64
}

func (s *rankedSelector) Name() string { return s.name }

// reconcile reproduces the fully-sorted walk of the original algorithm
// without sorting the whole domain. The boundary element b (the old
// ranked[nfreeze-1]) comes from the domain's carried band
// (carriedBoundary.topK): a counting pass and a select over the few servers
// near last tick's boundary, or quickselect over the whole domain when the
// boundary left the band. S membership is then two comparisons. Each pass
// collects its candidates from the scratch in whatever order the select left
// it (order-independent set membership) and sorts them in the preference
// order the old code iterated in, so the API call sequence — and with it
// every failure interleaving — is unchanged.
func (s *rankedSelector) reconcile(c *Controller, ds *domainState, nfreeze int, degraded bool) {
	c.refreshRank(ds, s.missing)
	rank := ds.rank
	cands := scratch(ds.cands, len(rank))
	// Candidate set S: the nfreeze preferred servers, plus — for stability
	// under the hottest-first policy — every other server still hotter
	// than rstable × the coldest member of the top set. A frozen server
	// inside S is not cycled out merely because fresh jobs elsewhere
	// overtook it. The band borrows cands' storage, free until the passes
	// below.
	b := ds.boundary.topK(rank, cands, nfreeze, s.hot)
	pThreshold := c.cfg.RStable * b.power
	// Membership in S: cmp(sp, b) <= 0, i.e. sp at-or-before the boundary —
	// equivalently NOT b strictly before sp (the comparators are a strict
	// total order), written through the inlinable lessPref instead of the
	// comparator func value.
	hot, stability := s.hot, s.stability
	inS := func(sp serverPower) bool {
		if !lessPref(b, sp, hot) {
			return true // within the top-nfreeze set
		}
		return stability && sp.power > pThreshold
	}

	// Unfreeze members that fell out of S (their power dropped enough).
	// Skipped in degraded mode: the ranking is stale, and swapping frozen
	// servers on stale data is churn without information.
	if !degraded {
		for _, sp := range rank {
			if ds.frozen.has(sp.id) && !inS(sp) {
				cands = append(cands, sp)
			}
		}
		slices.SortFunc(cands, s.cmp)
		for _, sp := range cands {
			c.unfreeze(ds, sp.id)
		}
		cands = cands[:0]
	}
	// Adjust the frozen count to exactly the target, judged on what the pass
	// above left frozen (a failed unfreeze leaves its server in place).
	switch frozen := ds.frozen.len(); {
	case frozen > nfreeze:
		// Release the least-preferred frozen servers first (deterministic
		// choice of the algorithm's "arbitrary" servers).
		for _, sp := range rank {
			if ds.frozen.has(sp.id) {
				cands = append(cands, sp)
			}
		}
		slices.SortFunc(cands, s.cmpRel)
		for _, sp := range cands {
			if ds.frozen.len() <= nfreeze {
				break
			}
			c.unfreeze(ds, sp.id)
		}
	case frozen < nfreeze:
		// Freeze the most-preferred members of S not yet frozen.
		for _, sp := range rank {
			if !ds.frozen.has(sp.id) && inS(sp) {
				cands = append(cands, sp)
			}
		}
		slices.SortFunc(cands, s.cmp)
		for _, sp := range cands {
			if ds.frozen.len() >= nfreeze {
				break
			}
			c.freeze(ds, sp.id)
		}
	}
	ds.cands = cands
}

// randomSelector freezes uniformly random servers (the ablation quantifying
// the paper's hottest-first choice). The shuffle consumes the controller's
// one selection stream (c.selRNG) in domain order.
type randomSelector struct{}

func (randomSelector) Name() string { return "random" }

// reconcile shuffles the rank scratch and walks it by shuffled position: S is
// the first nfreeze entries and there is no stability augmentation.
func (randomSelector) reconcile(c *Controller, ds *domainState, nfreeze int, degraded bool) {
	c.refreshRank(ds, -1) // the shuffle reads IDs only
	rank := ds.rank
	c.selRNG.Shuffle(len(rank), func(i, j int) {
		rank[i], rank[j] = rank[j], rank[i]
	})
	if !degraded {
		for _, sp := range rank[nfreeze:] {
			if ds.frozen.has(sp.id) {
				c.unfreeze(ds, sp.id)
			}
		}
	}
	switch frozen := ds.frozen.len(); {
	case frozen > nfreeze:
		for i := len(rank) - 1; i >= 0 && ds.frozen.len() > nfreeze; i-- {
			if ds.frozen.has(rank[i].id) {
				c.unfreeze(ds, rank[i].id)
			}
		}
	case frozen < nfreeze:
		for _, sp := range rank[:nfreeze] {
			if ds.frozen.len() >= nfreeze {
				break
			}
			if !ds.frozen.has(sp.id) {
				c.freeze(ds, sp.id)
			}
		}
	}
}

var (
	selHottest = &rankedSelector{name: "hottest", hot: true, cmp: cmpHot, cmpRel: cmpHotRev, stability: true, missing: -1}
	selColdest = &rankedSelector{name: "coldest", hot: false, cmp: cmpCold, cmpRel: cmpColdRev, stability: false, missing: math.Inf(1)}
	selRandom  = randomSelector{}
)

// selectorFor resolves the Config knob to its strategy.
func selectorFor(p SelectionPolicy) (Selector, error) {
	switch p {
	case SelectHottest:
		return selHottest, nil
	case SelectColdest:
		return selColdest, nil
	case SelectRandom:
		return selRandom, nil
	default:
		return nil, fmt.Errorf("core: unknown selection policy %d", int(p))
	}
}

// ParseSelectionPolicy parses a canonical policy name (the inverse of
// SelectionPolicy.String for the valid values).
func ParseSelectionPolicy(s string) (SelectionPolicy, error) {
	switch s {
	case "hottest":
		return SelectHottest, nil
	case "coldest":
		return SelectColdest, nil
	case "random":
		return SelectRandom, nil
	default:
		return 0, fmt.Errorf("core: unknown selection policy %q (hottest|coldest|random)", s)
	}
}

// Solver computes the freezing ratio from the control inputs — the axis that
// was the hardcoded Horizon branch in the control law. Implementations must be
// stateless: one instance serves every domain.
type Solver interface {
	// Name identifies the solver in reports.
	Name() string
	// Depth is the forecast depth consumed (≥ 1); the controller fills
	// et[:Depth()] with per-interval Et forecasts before calling Solve.
	Depth() int
	// Solve returns u ∈ [0, maxU] given the normalized power p and the
	// forecast slice et (length Depth()).
	Solve(p float64, et []float64, kr, maxU float64) float64
}

// spcpSolver is the paper's simplified problem: the closed-form SPCP (Eq. 13)
// at horizon 1, zero exactly when P is below the 1 − Et threshold of Fig 6.
type spcpSolver struct{}

func (spcpSolver) Name() string { return "spcp" }
func (spcpSolver) Depth() int   { return 1 }
func (spcpSolver) Solve(p float64, et []float64, kr, maxU float64) float64 {
	return SolveSPCP(p, et[0], 1.0, kr, maxU)
}

// pcpSolver is the exact horizon-N PCP (Eqs. 3–6): the first control of the
// N-interval solution, identical to SPCP under the paper's side conditions
// (Lemma 3.1) and stronger when a predicted surge exceeds one interval's
// control authority.
type pcpSolver struct{ n int }

func (s pcpSolver) Name() string { return fmt.Sprintf("pcp-%d", s.n) }
func (s pcpSolver) Depth() int   { return s.n }
func (s pcpSolver) Solve(p float64, et []float64, kr, maxU float64) float64 {
	return SolvePCPExact(p, et, 1.0, kr, maxU).U[0]
}

// solverFor resolves the Horizon knob: 1 (or 0) keeps the closed form.
func solverFor(horizon int) Solver {
	if horizon > 1 {
		return pcpSolver{n: horizon}
	}
	return spcpSolver{}
}

// UnfreezeMode enumerates release-path policies.
type UnfreezeMode int

const (
	// UnfreezeAll is the paper's behavior: the moment the solver's target
	// drops, release straight down to it (everything, when the target is 0).
	UnfreezeAll UnfreezeMode = iota
	// UnfreezeHeadroom gates releases on spare power headroom — the gap
	// between the observed power and the 1 − Et freeze threshold — and
	// drains the frozen set gradually, a watts translation of the
	// inferno-autoscaler spare-capacity trigger. It avoids the aggregate
	// thrash of releasing a block of capacity right at the threshold that
	// immediately pushes power back over it.
	UnfreezeHeadroom
)

// String returns the canonical mode name.
func (m UnfreezeMode) String() string {
	switch m {
	case UnfreezeAll:
		return "all"
	case UnfreezeHeadroom:
		return "headroom"
	default:
		return fmt.Sprintf("UnfreezeMode(%d)", int(m))
	}
}

// ParseUnfreezeMode is the inverse of UnfreezeMode.String for valid values.
func ParseUnfreezeMode(s string) (UnfreezeMode, error) {
	switch s {
	case "all":
		return UnfreezeAll, nil
	case "headroom":
		return UnfreezeHeadroom, nil
	default:
		return 0, fmt.Errorf("core: unknown unfreeze mode %q (all|headroom)", s)
	}
}

// UnfreezePolicy shapes the release path. It must be stateless.
type UnfreezePolicy interface {
	// Name is the canonical mode name.
	Name() string
	// target adjusts the solver's freeze target when it would release
	// capacity (target < frozen). It may hold capacity frozen — raise the
	// target toward frozen — or slow the drain, but never returns less than
	// the solver's own target: that target is the minimum the control law
	// says keeps P under budget. p is the control-law power, et the current
	// estimate, frozen the live frozen count, n the domain size.
	target(p, et float64, frozen, n, target int) int
}

// releaseAll passes the solver's target through unchanged.
type releaseAll struct{}

func (releaseAll) Name() string                              { return "all" }
func (releaseAll) target(_, _ float64, _, _, target int) int { return target }

// spareHeadroom releases only while spare headroom (1 − Et) − P exceeds
// trigger, at most ⌈stepFrac·n⌉ servers per tick; with thin headroom it holds
// the frozen set even when the solver says zero.
type spareHeadroom struct{ trigger, stepFrac float64 }

func (spareHeadroom) Name() string { return "headroom" }
func (s spareHeadroom) target(p, et float64, frozen, n, target int) int {
	headroom := (1 - et) - p
	if !(headroom > s.trigger) {
		// Too close to the threshold (or a NaN input, for which no
		// comparison holds): hold everything frozen.
		return frozen
	}
	step := int(s.stepFrac * float64(n))
	if step < 1 {
		step = 1
	}
	if frozen-target > step {
		return frozen - step
	}
	return target
}

// unfreezerFor resolves the Unfreeze knob (tunables already resolved by
// withPolicyDefaults).
func unfreezerFor(c Config) (UnfreezePolicy, error) {
	switch c.Unfreeze {
	case UnfreezeAll:
		return releaseAll{}, nil
	case UnfreezeHeadroom:
		return spareHeadroom{trigger: c.HeadroomTrigger, stepFrac: c.HeadroomStepFrac}, nil
	default:
		return nil, fmt.Errorf("core: unknown unfreeze mode %d", int(c.Unfreeze))
	}
}

// policies resolves every strategy axis from the Config knobs. It can only
// fail on enum values Validate would also reject; callers validate first, so
// a post-validation failure here means the two checks diverged.
func (c Config) policies() (Selector, Solver, UnfreezePolicy, error) {
	sel, err := selectorFor(c.Selection)
	if err != nil {
		return nil, nil, nil, err
	}
	unf, err := unfreezerFor(c)
	if err != nil {
		return nil, nil, nil, err
	}
	return sel, solverFor(c.Horizon), unf, nil
}

// EtMode enumerates the online Et estimator families built for domains
// without an externally supplied estimator (and swapped in wholesale by an
// explicit PolicyPatch.EtMode, replacing even external estimators — the
// counterfactual "what if Et had been forecast differently").
type EtMode int

const (
	// EtStatic is the paper's §3.6 estimator: the configured percentile of
	// per-hour-of-day observed increases (HourlyEt).
	EtStatic EtMode = iota
	// EtEWMA forecasts mean + band·deviation with exponentially weighted
	// moving averages — fast-adapting, memoryless of time of day.
	EtEWMA
	// EtSeasonal is a seasonal-naive forecast per hour of day: prepare for
	// the largest increase seen in the same hour yesterday.
	EtSeasonal
)

// String returns the canonical mode name.
func (m EtMode) String() string {
	switch m {
	case EtStatic:
		return "static"
	case EtEWMA:
		return "ewma"
	case EtSeasonal:
		return "seasonal"
	default:
		return fmt.Sprintf("EtMode(%d)", int(m))
	}
}

// ParseEtMode is the inverse of EtMode.String for valid values.
func ParseEtMode(s string) (EtMode, error) {
	switch s {
	case "static":
		return EtStatic, nil
	case "ewma":
		return EtEWMA, nil
	case "seasonal":
		return EtSeasonal, nil
	default:
		return 0, fmt.Errorf("core: unknown et mode %q (static|ewma|seasonal)", s)
	}
}

// newTrainableEt builds one domain's online estimator for the configured
// mode. Tunables must already be resolved (withPolicyDefaults).
func (c Config) newTrainableEt() (TrainableEt, error) {
	switch c.EtMode {
	case EtStatic:
		return NewWindowedHourlyEt(c.EtPercentile, etDefault, etMinSamples, c.EtWindow)
	case EtEWMA:
		return NewEWMAEt(c.EtAlpha, c.EtBand, etDefault, etMinSamples)
	case EtSeasonal:
		return NewSeasonalNaiveEt(etDefault)
	default:
		return nil, fmt.Errorf("core: unknown et mode %d", int(c.EtMode))
	}
}

// settlePolicy resolves every zero-valued policy tunable that has a
// deployment default to it and returns the first axis then out of range:
// Validate's check of the policy axes, on its copy of the Config.
func (c *Config) settlePolicy() (first error) {
	for _, a := range policyAxes {
		if a.settle == nil {
			continue
		}
		if err := a.settle(c); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// withPolicyDefaults resolves zero-valued policy tunables to the deployment
// defaults, so hand-built Configs keep working as strategy knobs are added
// (zero selects the default; an explicit zero is not distinguishable and
// also selects the default). The ranges are Validate's to report.
func (c Config) withPolicyDefaults() Config {
	_ = c.settlePolicy()
	return c
}
