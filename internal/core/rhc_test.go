package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSolveSPCP(t *testing.T) {
	cases := []struct {
		p, et, pm, kr, maxU float64
		want                float64
	}{
		{0.90, 0.02, 1.0, 0.10, 1.0, 0},    // under threshold
		{0.95, 0.05, 1.0, 0.10, 1.0, 0},    // exactly at threshold
		{0.98, 0.05, 1.0, 0.10, 1.0, 0.30}, // (0.98+0.05−1)/0.1
		{1.05, 0.05, 1.0, 0.10, 1.0, 1.0},  // clamp high
		{1.05, 0.05, 1.0, 0.10, 0.5, 0.5},  // clamp at operational max
		{0.50, 0.00, 1.0, 0.10, 1.0, 0},    // far below
	}
	for _, c := range cases {
		got := SolveSPCP(c.p, c.et, c.pm, c.kr, c.maxU)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("SolveSPCP(%v,%v,%v,%v,%v) = %v, want %v", c.p, c.et, c.pm, c.kr, c.maxU, got, c.want)
		}
	}
}

func TestSolveSPCPPanicsOnBadKr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("kr=0 did not panic")
		}
	}()
	SolveSPCP(1, 0, 1, 0, 1)
}

// refSolvePCP is the test oracle for the general power control problem
// (Eqs. 3–6) over a horizon of predicted demand increases e[k], with a
// monotone effect f(u), f(0) = 0, the normalized power reduction of freezing
// a fraction u: at each step the smallest u_k keeping P_{k+1} ≤ pm, found by
// bisection. For linear f the sequence is optimal for the whole horizon
// (Lemma 3.1, TestLemma31Property), which SolvePCPExact is checked against.
func refSolvePCP(p0 float64, e []float64, pm float64, f func(u float64) float64, maxU float64) PCPResult {
	if maxU <= 0 || maxU > 1 {
		panic(fmt.Sprintf("refSolvePCP maxU %v outside (0,1]", maxU))
	}
	res := PCPResult{U: make([]float64, len(e)), P: make([]float64, len(e)), Feasible: true}
	p := p0
	for k, ek := range e {
		need := p + ek - pm // required f(u_k) to land exactly on the budget
		var u float64
		switch {
		case need <= 0:
		case f(maxU) < need-1e-12: // tolerance keeps the boundary case E_k = f(maxU) feasible
			u = maxU
			res.Feasible = false
		default: // the smallest u in [0, maxU] with f(u) ≥ need
			lo, hi := 0.0, maxU
			for i := 0; i < 60; i++ {
				if mid := (lo + hi) / 2; f(mid) >= need {
					hi = mid
				} else {
					lo = mid
				}
			}
			u = hi
		}
		p = p + ek - f(u)
		res.U[k], res.P[k] = u, p
		res.Cost += u
	}
	return res
}

// linear is the paper's effect model f(u) = kr·u.
func linear(kr float64) func(float64) float64 {
	return func(u float64) float64 { return kr * u }
}

func TestSolvePCPLinearMatchesSPCPSequence(t *testing.T) {
	kr := 0.12
	p0 := 0.97
	e := []float64{0.03, 0.05, -0.02, 0.04}
	res := refSolvePCP(p0, e, 1.0, linear(kr), 1.0)
	if !res.Feasible {
		t.Fatal("feasible problem reported infeasible")
	}
	// Replaying SPCP step by step must give the identical sequence
	// (Lemma 3.1's construction).
	p := p0
	for k, ek := range e {
		u := SolveSPCP(p, ek, 1.0, kr, 1.0)
		if math.Abs(u-res.U[k]) > 1e-9 {
			t.Errorf("step %d: PCP u=%v, SPCP u=%v", k, res.U[k], u)
		}
		p = p + ek - kr*u
		if math.Abs(p-res.P[k]) > 1e-9 {
			t.Errorf("step %d: trajectory %v vs %v", k, res.P[k], p)
		}
		if p > 1.0+1e-9 {
			t.Errorf("step %d: feasible solution exceeds budget: %v", k, p)
		}
	}
}

func TestSolvePCPInfeasible(t *testing.T) {
	// Demand rises faster than the maximum control can absorb.
	res := refSolvePCP(0.99, []float64{0.30}, 1.0, linear(0.10), 0.5)
	if res.Feasible {
		t.Error("infeasible problem reported feasible")
	}
	if res.U[0] != 0.5 {
		t.Errorf("infeasible step should saturate at maxU: %v", res.U[0])
	}
	if res.P[0] <= 1.0 {
		t.Errorf("infeasible trajectory should exceed budget: %v", res.P[0])
	}
}

func TestSolvePCPNonlinearEffect(t *testing.T) {
	// Concave effect: f(u) = 0.2·sqrt(u), still monotone with f(0)=0.
	f := func(u float64) float64 { return 0.2 * math.Sqrt(u) }
	res := refSolvePCP(1.0, []float64{0.10}, 1.0, f, 1.0)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	// Need f(u) = 0.10 → u = 0.25.
	if math.Abs(res.U[0]-0.25) > 1e-9 {
		t.Errorf("u = %v, want 0.25", res.U[0])
	}
	if math.Abs(res.P[0]-1.0) > 1e-9 {
		t.Errorf("power lands at %v, want exactly 1.0", res.P[0])
	}
}

func TestSolvePCPPanicsOnBadMaxU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("maxU=0 did not panic")
		}
	}()
	refSolvePCP(1, []float64{0.1}, 1, linear(0.1), 0)
}

func TestSolvePCPZeroHorizon(t *testing.T) {
	res := refSolvePCP(1.2, nil, 1.0, linear(0.1), 1.0)
	if len(res.U) != 0 || res.Cost != 0 || !res.Feasible {
		t.Errorf("zero-horizon result %+v", res)
	}
}

// bruteForcePCP exhaustively searches a u-grid for the feasible sequence of
// minimum total cost — the reference implementation for Lemma 3.1.
func bruteForcePCP(p0 float64, e []float64, pm, kr float64, grid int) (bestCost float64, feasible bool) {
	bestCost = math.Inf(1)
	var rec func(k int, p, cost float64)
	rec = func(k int, p, cost float64) {
		if cost >= bestCost {
			return
		}
		if k == len(e) {
			bestCost = cost
			feasible = true
			return
		}
		for i := 0; i <= grid; i++ {
			u := float64(i) / float64(grid)
			next := p + e[k] - kr*u
			if next <= pm+1e-12 {
				rec(k+1, next, cost+u)
			}
		}
	}
	rec(0, p0, 0)
	return bestCost, feasible
}

// Property (Lemma 3.1): under the paper's side conditions — P_t0 ≤ PM,
// E_k ≥ 0, and E_k ≤ kr·maxU so that control never saturates ("if all
// servers are frozen, the row-level power will not rise") — the per-step
// SPCP sequence computed by refSolvePCP is optimal for the whole-horizon PCP:
// it is feasible, no feasible grid sequence costs less, and it matches the
// exact solver.
func TestLemma31Property(t *testing.T) {
	f := func(p0Raw, krRaw uint8, eRaw []uint8) bool {
		p0 := 0.8 + float64(p0Raw%21)/100 // 0.80 … 1.00 (≤ PM)
		kr := 0.05 + float64(krRaw%20)/100
		horizon := len(eRaw)
		if horizon > 4 {
			horizon = 4
		}
		e := make([]float64, horizon)
		for i := 0; i < horizon; i++ {
			e[i] = kr * float64(eRaw[i]%10) / 10 // 0 … 0.9·kr, strictly inside the lemma region
		}
		res := refSolvePCP(p0, e, 1.0, linear(kr), 1.0)
		if !res.Feasible {
			return false // lemma guarantees feasibility here
		}
		exact := SolvePCPExact(p0, e, 1.0, kr, 1.0)
		if !exact.Feasible || res.Cost > exact.Cost+1e-9 {
			return false
		}
		const grid = 40
		bfCost, bfFeasible := bruteForcePCP(p0, e, 1.0, kr, grid)
		if !bfFeasible {
			return false
		}
		// Greedy must be no worse than the best grid solution (the grid is
		// coarser, so allow its discretization slack of one step per stage).
		slack := float64(horizon) / grid
		return res.Cost <= bfCost+slack+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSolvePCPExactPreFreezes(t *testing.T) {
	// A surge of E=0.30 with kr=0.10 cannot be absorbed in one step
	// (stepwise SPCP saturates and violates); the exact solver freezes in
	// advance and stays feasible.
	p0 := 0.95
	e := []float64{0.0, 0.0, 0.30}
	greedy := refSolvePCP(p0, e, 1.0, linear(0.10), 1.0)
	if greedy.Feasible {
		t.Fatal("stepwise solver unexpectedly feasible")
	}
	exact := SolvePCPExact(p0, e, 1.0, 0.10, 1.0)
	if !exact.Feasible {
		t.Fatal("exact solver infeasible on a feasible instance")
	}
	for k, p := range exact.P {
		if p > 1.0+1e-9 {
			t.Errorf("exact trajectory exceeds budget at step %d: %v", k, p)
		}
	}
	if exact.U[0]+exact.U[1] == 0 {
		t.Error("exact solver did not pre-freeze ahead of the surge")
	}
	// Total control matches the cumulative requirement exactly:
	// R = (0.95 + 0.30 − 1)/0.10 = 2.5.
	if math.Abs(exact.Cost-2.5) > 1e-9 {
		t.Errorf("exact cost %v, want 2.5", exact.Cost)
	}
}

func TestSolvePCPExactInfeasible(t *testing.T) {
	// Even instant saturation cannot absorb the first-step surge.
	res := SolvePCPExact(0.99, []float64{0.50, 0.0}, 1.0, 0.10, 0.5)
	if res.Feasible {
		t.Error("infeasible instance reported feasible")
	}
	if res.U[0] != 0.5 {
		t.Errorf("first step should saturate: %v", res.U[0])
	}
	if res.P[0] <= 1.0 {
		t.Errorf("first step should exceed budget: %v", res.P[0])
	}
}

func TestSolvePCPExactMatchesGreedyUnderLemmaConditions(t *testing.T) {
	p0 := 0.97
	kr := 0.12
	e := []float64{0.02, 0.05, 0.0, 0.10}
	g := refSolvePCP(p0, e, 1.0, linear(kr), 1.0)
	x := SolvePCPExact(p0, e, 1.0, kr, 1.0)
	if !g.Feasible || !x.Feasible {
		t.Fatal("expected both feasible")
	}
	if math.Abs(g.Cost-x.Cost) > 1e-9 {
		t.Errorf("costs differ: greedy %v, exact %v", g.Cost, x.Cost)
	}
}

func TestSolvePCPExactPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"kr":   func() { SolvePCPExact(1, []float64{0.1}, 1, 0, 1) },
		"maxU": func() { SolvePCPExact(1, []float64{0.1}, 1, 0.1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: the exact solver never costs more than stepwise SPCP, and its
// feasible trajectories respect the budget.
func TestExactDominatesGreedyProperty(t *testing.T) {
	f := func(p0Raw uint8, eRaw []int8) bool {
		p0 := 0.8 + float64(p0Raw%35)/100
		e := make([]float64, 0, 5)
		for i, v := range eRaw {
			if i == 5 {
				break
			}
			e = append(e, float64(v%15)/100) // −0.14 … 0.14
		}
		g := refSolvePCP(p0, e, 1.0, linear(0.1), 1.0)
		x := SolvePCPExact(p0, e, 1.0, 0.1, 1.0)
		if g.Feasible && !x.Feasible {
			return false // exact must be feasible whenever greedy is
		}
		if x.Feasible && g.Feasible && x.Cost > g.Cost+1e-9 {
			return false
		}
		if x.Feasible {
			for _, p := range x.P {
				if p > 1.0+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the solved trajectory never exceeds the budget while feasible,
// and controls always lie in [0, maxU].
func TestPCPBoundsProperty(t *testing.T) {
	f := func(p0Raw uint8, eRaw []int8, maxURaw uint8) bool {
		p0 := 0.7 + float64(p0Raw%40)/100
		maxU := 0.1 + float64(maxURaw%90)/100
		e := make([]float64, 0, len(eRaw))
		for _, v := range eRaw {
			e = append(e, float64(v%12)/100)
		}
		res := refSolvePCP(p0, e, 1.0, linear(0.1), maxU)
		for k, u := range res.U {
			if u < 0 || u > maxU+1e-12 {
				return false
			}
			if res.Feasible && res.P[k] > 1.0+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// solvePCPExactRecursive is the original recursive formulation of
// SolvePCPExact, kept as the reference for the equivalence property test:
// on an infeasible prefix it saturates the first step and re-solves the
// tail on the realized trajectory, re-deriving R and S* each level.
func solvePCPExactRecursive(p0 float64, e []float64, pm, kr, maxU float64) PCPResult {
	n := len(e)
	res := PCPResult{U: make([]float64, n), P: make([]float64, n), Feasible: true}
	if n == 0 {
		return res
	}
	r := make([]float64, n)
	acc := p0 - pm
	for m, ek := range e {
		acc += ek
		r[m] = acc / kr
	}
	s := make([]float64, n)
	s[n-1] = math.Max(0, r[n-1])
	for m := n - 2; m >= 0; m-- {
		s[m] = math.Max(0, math.Max(r[m], s[m+1]-maxU))
	}
	if s[0] > maxU+1e-12 {
		res.Feasible = false
		u0 := maxU
		p1 := p0 + e[0] - kr*u0
		tail := solvePCPExactRecursive(p1, e[1:], pm, kr, maxU)
		res.U[0], res.P[0] = u0, p1
		copy(res.U[1:], tail.U)
		copy(res.P[1:], tail.P)
		res.Cost = u0 + tail.Cost
		return res
	}
	p := p0
	prev := 0.0
	for m := 0; m < n; m++ {
		u := math.Min(maxU, math.Max(0, s[m]-prev))
		prev += u
		p = p + e[m] - kr*u
		res.U[m], res.P[m] = u, p
		res.Cost += u
	}
	return res
}

// Property: the iterative SolvePCPExact agrees step for step with the
// recursive reference across feasible, infeasible, and mixed horizons —
// including demand drops (negative E) and long saturated prefixes.
func TestSolvePCPExactMatchesRecursiveProperty(t *testing.T) {
	f := func(p0Raw, krRaw, maxURaw uint8, eRaw []int8) bool {
		p0 := 0.6 + float64(p0Raw%70)/100     // 0.60 … 1.29: starts above budget too
		kr := 0.02 + float64(krRaw%25)/100    // 0.02 … 0.26
		maxU := 0.1 + float64(maxURaw%90)/100 // 0.1 … 0.99
		e := make([]float64, 0, len(eRaw))
		for _, v := range eRaw {
			e = append(e, float64(v%25)/100) // −0.24 … 0.24: surges and drops
		}
		got := SolvePCPExact(p0, e, 1.0, kr, maxU)
		want := solvePCPExactRecursive(p0, e, 1.0, kr, maxU)
		if got.Feasible != want.Feasible {
			return false
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9 {
			return false
		}
		for k := range e {
			if math.Abs(got.U[k]-want.U[k]) > 1e-9 || math.Abs(got.P[k]-want.P[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// An all-infeasible horizon exercises the path that used to recurse once
// per step: every step saturates and the trajectory stays over budget.
func TestSolvePCPExactLongInfeasibleHorizon(t *testing.T) {
	const n = 512
	e := make([]float64, n)
	for i := range e {
		e[i] = 0.2 // every step demands 2× what saturation can absorb (kr·maxU = 0.05)
	}
	got := SolvePCPExact(1.0, e, 1.0, 0.1, 0.5)
	want := solvePCPExactRecursive(1.0, e, 1.0, 0.1, 0.5)
	if got.Feasible || want.Feasible {
		t.Fatal("instance should be infeasible")
	}
	for k := 0; k < n; k++ {
		if got.U[k] != 0.5 {
			t.Fatalf("step %d not saturated: %v", k, got.U[k])
		}
		if math.Abs(got.P[k]-want.P[k]) > 1e-9 {
			t.Fatalf("trajectory diverges at %d: %v vs %v", k, got.P[k], want.P[k])
		}
	}
	if math.Abs(got.Cost-want.Cost) > 1e-9 {
		t.Fatalf("cost %v vs %v", got.Cost, want.Cost)
	}
}

// infeasibleHorizon returns a 1k-step horizon whose first ~half saturates
// (the old implementation recursed once per saturated step, re-allocating
// U/P/R/S at every level — O(n²) time and allocations).
func infeasibleHorizon(n int) []float64 {
	e := make([]float64, n)
	for i := range e {
		if i < n/2 {
			e[i] = 0.15
		} else {
			e[i] = -0.2
		}
	}
	return e
}

func BenchmarkSolvePCPExactInfeasible1k(b *testing.B) {
	e := infeasibleHorizon(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SolvePCPExact(1.05, e, 1.0, 0.1, 0.5)
		if res.Feasible {
			b.Fatal("horizon unexpectedly feasible")
		}
	}
}

func BenchmarkSolvePCPExactRecursiveInfeasible1k(b *testing.B) {
	e := infeasibleHorizon(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solvePCPExactRecursive(1.05, e, 1.0, 0.1, 0.5)
		if res.Feasible {
			b.Fatal("horizon unexpectedly feasible")
		}
	}
}
