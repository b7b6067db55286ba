package core

import (
	"fmt"
	"math"
)

// SolveSPCP returns the optimal freezing ratio of the simplified power
// control problem (Eq. 13):
//
//	u = max{min{(Pt + Et − PM)/kr, maxU}, 0}
//
// All powers are normalized to the budget (PM = 1 in the paper's
// formulation, but any consistent scale works). maxU is the operational
// freeze cap (the paper uses 0.5); pass 1 for the unconstrained optimum.
func SolveSPCP(pt, et, pm, kr, maxU float64) float64 {
	if kr <= 0 {
		panic(fmt.Sprintf("core: SolveSPCP with non-positive kr %v", kr))
	}
	u := (pt + et - pm) / kr
	if u < 0 {
		return 0
	}
	if u > maxU {
		return maxU
	}
	return u
}

// PCPResult is the outcome of a horizon-N power control problem.
type PCPResult struct {
	// U holds the control sequence u_t … u_{t+N−1}.
	U []float64
	// P holds the predicted power trajectory P_{t+1} … P_{t+N}.
	P []float64
	// Cost is Σ u_k (Eq. 2's linear cost).
	Cost float64
	// Feasible reports whether the trajectory stays at or below the budget
	// at every step; when false the controls saturate at maxU and the
	// predicted power still exceeds the budget somewhere (the condition in
	// which the DVFS safety net matters).
	Feasible bool
}

// SolvePCPExact solves the linear-effect PCP (Eqs. 3–6 with f(u) = kr·u)
// exactly over the whole horizon, including cases where per-step control
// saturates and pre-freezing ahead of a predicted surge is required. The
// budget constraint P_{k+1} ≤ pm is equivalent to prefix-sum constraints
// S_m = Σ_{k≤m} u_k ≥ R_m with per-step increments in [0, maxU]; the minimal
// feasible prefix sums S*_m are computed by a backward pass, and the control
// sequence falls out of one clamped forward pass.
//
// Infeasible instances (some S*_m unreachable even at full saturation) need
// no special casing: saturating u_0 = maxU and re-solving the tail on the
// realized trajectory — the original recursive formulation — shifts every
// tail requirement down by exactly maxU, which is precisely what the forward
// pass's cumulative-control tracking does. The forward pass therefore
// saturates through the infeasible prefix and solves the feasible remainder
// in a single O(n) sweep; the recursion's O(n²) time and per-level U/P/r/s
// allocations are gone (see BenchmarkSolvePCPExactInfeasible1k), and a
// property test checks step-for-step agreement with the recursive reference.
//
// Under the paper's empirical side condition 0 ≤ E_k ≤ kr·maxU this yields
// the same sequence as stepwise SPCP (Lemma 3.1); beyond it, it strictly
// dominates — the ablation benchmarks quantify the difference.
func SolvePCPExact(p0 float64, e []float64, pm, kr, maxU float64) PCPResult {
	if kr <= 0 {
		panic(fmt.Sprintf("core: SolvePCPExact with non-positive kr %v", kr))
	}
	if maxU <= 0 || maxU > 1 {
		panic(fmt.Sprintf("core: SolvePCPExact maxU %v outside (0,1]", maxU))
	}
	n := len(e)
	res := PCPResult{U: make([]float64, n), P: make([]float64, n), Feasible: true}
	if n == 0 {
		return res
	}
	// Required cumulative control R_m to keep P_{m+1} ≤ pm, then the minimal
	// monotone prefix sums with bounded increments (backward pass, in place).
	s := make([]float64, n)
	acc := p0 - pm
	for m, ek := range e {
		acc += ek
		s[m] = acc / kr
	}
	s[n-1] = math.Max(0, s[n-1])
	for m := n - 2; m >= 0; m-- {
		s[m] = math.Max(0, math.Max(s[m], s[m+1]-maxU))
	}
	p := p0
	prev := 0.0
	for m := 0; m < n; m++ {
		// prev may already exceed this step's requirement when R decreases
		// (demand drops); prefix sums are non-decreasing, so clamp at 0.
		// Wherever the requirement outruns full saturation the step rides at
		// maxU and the trajectory exceeds the budget — the condition in which
		// the DVFS safety net matters; the 1e-12 tolerance keeps boundary
		// instances feasible, matching the recursive formulation.
		need := math.Max(0, s[m]-prev)
		if need > maxU+1e-12 {
			res.Feasible = false
		}
		u := math.Min(maxU, need)
		prev += u
		p = p + e[m] - kr*u
		res.U[m], res.P[m] = u, p
		res.Cost += u
	}
	return res
}
