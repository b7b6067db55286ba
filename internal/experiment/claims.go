package experiment

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
)

// This file holds every experiment's checked claims: the shapes the paper
// (or EXPERIMENTS.md, for the studies beyond it) states, evaluated by the
// catalogue on the very result an -exp run has just reported. A bound is the
// paper's shape — who wins, by roughly what factor, where the order lies —
// never the current output give or take a slack, which would be a second
// golden.

// Claim is one checked statement about an experiment's result.
type Claim struct {
	// Name says what is claimed; Source where: the paper's words with the
	// figure or section, or the EXPERIMENTS.md row.
	Name, Source string
	// Value is the measured value and Bound the shape it must meet.
	Value, Bound string
	Held         bool
	// PaperScale marks a claim the -quick sizes are too small to show; it is
	// checked at paper scale only (make golden-paper runs every id that
	// carries one).
	PaperScale bool
}

func (c Claim) String() string {
	return fmt.Sprintf("%s: measured %s, bound %s (%s)", c.Name, c.Value, c.Bound, c.Source)
}

func holds(name, source string, held bool, value, bound string) Claim {
	return Claim{Name: name, Source: source, Value: value, Bound: bound, Held: held}
}

func atLeast(name, source string, got, min float64) Claim {
	return holds(name, source, got >= min, num(got), "≥ "+num(min))
}

func atMost(name, source string, got, max float64) Claim {
	return holds(name, source, got <= max, num(got), "≤ "+num(max))
}

func within(name, source string, got, lo, hi float64) Claim {
	return holds(name, source, got >= lo && got <= hi, num(got), fmt.Sprintf("in [%s, %s]", num(lo), num(hi)))
}

func paperScale(c Claim) Claim {
	c.PaperScale = true
	return c
}

func num(v float64) string { return fmt.Sprintf("%.4g", v) }

func vs(a, b float64) string { return num(a) + " vs " + num(b) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// byName indexes rows by the name key returns.
func byName[T any](rows []T, key func(T) string) map[string]T {
	m := make(map[string]T, len(rows))
	for _, r := range rows {
		m[key(r)] = r
	}
	return m
}

func fig1Claims(_ Fig1Config, r *Fig1Result) []Claim {
	const src = "Fig 1: DC mean ≈ 0.70; utilization peaks lower at larger aggregation"
	return []Claim{
		holds("p99 utilization orders rack ≥ row ≥ dc", src,
			r.P99Rack >= r.P99Row && r.P99Row >= r.P99DC,
			fmt.Sprintf("%.3f / %.3f / %.3f", r.P99Rack, r.P99Row, r.P99DC), "rack ≥ row ≥ dc"),
		within("DC mean utilization ≈ 0.70", src, r.MeanDC, 0.55, 0.85),
	}
}

func fig2Claims(_ Fig2Config, r *Fig2Result) []Claim {
	return []Claim{atLeast("fraction of cross-row correlations with |r| < 0.33",
		"Fig 2: 80 % of cross-row correlations < 0.33", r.FracWeak, 0.8)}
}

func fig4Claims(_ Fig4Config, r *Fig4Result) []Claim {
	const src = "Fig 4: frozen servers decay close to idle after ≈ 35 min"
	start, final := r.Series[0], r.Series[len(r.Series)-1]
	return []Claim{
		atLeast("frozen power decays (start − final)", src, start-final, 0.05),
		atMost("final power above idle", src, final-r.IdleFrac, 0.10),
		within("minutes to 90 % of the decay", src, float64(r.MinutesTo90), 10, 50),
	}
}

func fig5Claims(_ Fig5Config, r *Fig5Result) []Claim {
	const src = "Fig 5: f(u) grows ≈ linearly in u; the fit gives kr"
	first, last := r.Bands[0], r.Bands[len(r.Bands)-1]
	return []Claim{
		holds("fitted kr positive", src, r.Kr > 0, num(r.Kr), "> 0"),
		holds("median f(u) at the largest u above the smallest u's", src, last.P50 > first.P50,
			vs(last.P50, first.P50), "largest > smallest"),
		paperScale(holds("linear fit explains f(u): R² positive", src, r.R2 > 0, num(r.R2), "> 0")),
	}
}

func fig7Claims(_ fig7Config, r *Fig7Result) []Claim {
	const src = "Fig 7: job durations mean ≈ 9 min, 40 % ≤ 2 min"
	return []Claim{
		within("mean duration (min)", src, r.MeanMinutes, 7.5, 10),
		within("P(duration ≤ 2 min)", src, r.FracWithin2, 0.36, 0.44),
	}
}

func fig8Claims(_ Fig8Config, r *Fig8Result) []Claim {
	return []Claim{atLeast("hourly-mean swing over the day",
		"Fig 8: row power swings ≈ 0.75–1.0 of peak over a day", r.HourlySwing, 0.08)}
}

func fig9Claims(_ Fig9Config, r *Fig9Result) []Claim {
	const src = "Fig 9: 1-min changes within ±2.5 % for 99 % of minutes; wider at coarser scales"
	spread := func(w int) float64 { return cdfValueAt(r.Scales[w], 0.99) - cdfValueAt(r.Scales[w], 0.01) }
	s := []float64{spread(1), spread(5), spread(20), spread(60)}
	return []Claim{
		atMost("p99 |Δ| at 1 min", src, r.P99Abs1Min, 0.025),
		holds("spike tail beyond the p99: max |Δ1min| > p99", src, r.MaxAbs1Min > r.P99Abs1Min,
			vs(r.MaxAbs1Min, r.P99Abs1Min), "max > p99"),
		holds("p1–p99 spread wider at 20 min than at 1 min", src, s[2] > s[0], vs(s[2], s[0]), "20-min > 1-min"),
		paperScale(holds("p1–p99 spread widens with every scale", src, s[0] < s[1] && s[1] < s[2] && s[2] < s[3],
			fmt.Sprintf("%.4f / %.4f / %.4f / %.4f", s[0], s[1], s[2], s[3]), "1 < 5 < 20 < 60 min")),
	}
}

func table2Claims(_ Table2Config, r *Table2Result) []Claim {
	const src = "Table 2 (§4.2): heavy 1 violation with Ampere vs 321 without, umax 50 %; light 0 vs 0, u ≈ 0"
	h, l := r.Heavy, r.Light
	capU := core.DefaultConfig().MaxFreezeRatio
	return []Claim{
		holds("heavy: Ampere ≥ 10× fewer violations than uncontrolled", src,
			h.ViolationsCtl > 0 && h.ViolationsExp*10 <= h.ViolationsCtl,
			vs(float64(h.ViolationsExp), float64(h.ViolationsCtl)), "exp × 10 ≤ ctrl, ctrl > 0"),
		holds("heavy: u_max reaches the freeze cap", src, math.Abs(h.UMax-capU) < 1e-9, pct(h.UMax), "= "+pct(capU)),
		holds("heavy: controlled P_max below uncontrolled", src, h.PMaxExp < h.PMaxCtrl,
			vs(h.PMaxExp, h.PMaxCtrl), "exp < ctrl"),
		holds("light: no violations in either group", src, l.ViolationsExp == 0 && l.ViolationsCtl == 0,
			vs(float64(l.ViolationsExp), float64(l.ViolationsCtl)), "0 vs 0"),
		atMost("light: u_mean", src, l.UMean, 0.05),
	}
}

func fig11Claims(_ Fig11Config, r *Fig11Result) []Claim {
	const src = "Fig 11 (§4.3): capping almost doubles the p99.9 of every operation; Ampere leaves it untouched"
	lo := math.Inf(1)
	for _, row := range r.Rows {
		lo = min(lo, row.Inflation)
	}
	return []Claim{
		holds("Ampere's p999 below capping's on every op: lowest ratio", src, lo > 1, num(lo), "> 1"),
		holds("Ampere's capped server-intervals below capping's", src,
			r.CappedServerFracAmpere < r.CappedServerFracCapping,
			pct(r.CappedServerFracAmpere)+" vs "+pct(r.CappedServerFracCapping), "ampere < capping"),
		paperScale(atLeast("capping ≈ doubles p999: lowest op ratio", src, lo, 1.5)),
	}
}

func fig11ScaleClaims(_ Fig11ScaleConfig, r *Fig11ScaleResult) []Claim {
	const src = "EXPERIMENTS.md, Fig 11 at deployment scale: capping saturates its rows, Ampere rides the same budget by freezing batch"
	return []Claim{
		holds("aggregate p999 higher under capping: ratio", src, r.AggInflation > 1, num(r.AggInflation), "> 1"),
		holds("SLO miss higher under capping", src, r.SLOMissCapping > r.SLOMissAmpere,
			pct(r.SLOMissCapping)+" vs "+pct(r.SLOMissAmpere), "capping > ampere"),
		holds("capping regime caps and Ampere regime freezes", src,
			r.CappedServerFracCapping > 0 && r.FrozenServerMinutes > 0,
			fmt.Sprintf("capped %s, frozen %d server-min", pct(r.CappedServerFracCapping), r.FrozenServerMinutes), "both > 0"),
		holds("both regimes serve the identical open-loop arrivals", src,
			r.ServedCapping > 0 && r.ServedCapping == r.ServedAmpere,
			fmt.Sprintf("%d vs %d", r.ServedCapping, r.ServedAmpere), "equal, > 0"),
	}
}

func fig12Claims(_ Fig12Config, r *Fig12Result) []Claim {
	const src = "Fig 12 (§4.4): rT ≈ 0.8 in the boxed high-load region, ≈ 0.95 over the 4 h"
	maxExp, maxCtl := slices.Max(r.ExpNorm), slices.Max(r.CtrlNorm)
	return []Claim{
		holds("uncontrolled demand exceeds the scaled budget, controlled power stays below it", src,
			maxCtl > 1 && maxExp < maxCtl, fmt.Sprintf("max exp %.3f, ctrl %.3f", maxExp, maxCtl), "exp < ctrl, ctrl > 1"),
		holds("rT lower in the high-load box than overall", src, r.RTHighLoad < r.RTOverall,
			vs(r.RTHighLoad, r.RTOverall), "box < overall"),
		within("control threshold 1 − Et", src, r.Threshold, 0.8, 1),
	}
}

func table3Claims(_ Table3Config, r *Table3Result) []Claim {
	const src = "Table 3 (§4.4): GTPW bounded by rO and reached when rT = 1, falling on the heaviest days"
	lowest, excess := math.Inf(1), math.Inf(-1)
	for _, row := range r.Rows {
		lowest, excess = min(lowest, row.GTPW), max(excess, row.GTPW-row.RO)
	}
	// Days are listed by rising load within each rO: the first day of a
	// group runs at rT ≈ 1, and the last must read the group's lowest GTPW.
	shortfall, unordered := math.Inf(-1), []string(nil)
	for i := 0; i < len(r.Rows); {
		shortfall = max(shortfall, r.Rows[i].RO-r.Rows[i].GTPW)
		j, least := i, r.Rows[i].GTPW
		for ; j < len(r.Rows) && r.Rows[j].RO == r.Rows[i].RO; j++ {
			least = min(least, r.Rows[j].GTPW)
		}
		if r.Rows[j-1].GTPW != least {
			unordered = append(unordered, fmt.Sprintf("rO %.2f", r.Rows[i].RO))
		}
		i = j
	}
	return []Claim{
		holds("GTPW positive on every day: lowest", src, lowest > 0, pct(lowest), "> 0"),
		// rT carries ≈ 2 % of statistical noise, which can lift it above 1.
		atMost("GTPW bounded by rO: largest GTPW − rO", src, excess, 0.03),
		atMost("GTPW ≈ rO on each rO's lightest day: largest rO − GTPW", src, shortfall, 0.05),
		holds("heaviest day of each rO has that rO's lowest GTPW", src, len(unordered) == 0,
			fmt.Sprintf("groups out of order: %v", unordered), "none"),
	}
}

func spreadClaims(_ SpreadConfig, rows []SpreadOutcome) []Claim {
	const src = "EXPERIMENTS.md, cross-row variance shaping (§6): concentrating placement raises variance, conserves headroom and localizes it into idle rows"
	m := byName(rows, func(o SpreadOutcome) string { return o.Policy })
	prop, conc, bal := m["proportional"], m["concentrate-rows"], m["balance-rows"]
	return []Claim{
		holds("concentrate raises cross-row std over proportional", src, conc.CrossRowStd > prop.CrossRowStd,
			vs(conc.CrossRowStd, prop.CrossRowStd), "concentrate > proportional"),
		holds("balance does not raise it", src, bal.CrossRowStd <= prop.CrossRowStd+1e-6,
			vs(bal.CrossRowStd, prop.CrossRowStd), "balance ≤ proportional"),
		within("total headroom conserved: concentrate − proportional", src, conc.HeadroomFrac-prop.HeadroomFrac, -0.05, 0.05),
		holds("concentrate leaves more idle rows", src, conc.IdleRows > prop.IdleRows,
			fmt.Sprintf("%d vs %d", conc.IdleRows, prop.IdleRows), "concentrate > proportional"),
		atLeast("throughput concentrate / proportional", src, float64(conc.Throughput)/float64(prop.Throughput), 0.98),
	}
}

func outageClaims(_ OutageConfig, rows []OutageOutcome) []Claim {
	const src = "EXPERIMENTS.md, breaker-trip outage (§2.1): the unprotected row trips and kills jobs; capping and Ampere both prevent it"
	m := byName(rows, func(o OutageOutcome) string { return o.Regime })
	none, capp, amp := m["none"], m["capping"], m["ampere"]
	return []Claim{
		holds("unprotected row trips and kills jobs", src, none.Tripped && none.JobsKilled > 0,
			fmt.Sprintf("tripped %v, %d killed", none.Tripped, none.JobsKilled), "tripped, > 0 killed"),
		holds("capping and Ampere never trip or kill a job", src,
			!capp.Tripped && !amp.Tripped && capp.JobsKilled == 0 && amp.JobsKilled == 0,
			fmt.Sprintf("tripped %v/%v, killed %d/%d", capp.Tripped, amp.Tripped, capp.JobsKilled, amp.JobsKilled), "no trip, 0 killed"),
		holds("the outage costs throughput against Ampere", src, none.Throughput < amp.Throughput,
			fmt.Sprintf("%d vs %d", none.Throughput, amp.Throughput), "none < ampere"),
	}
}

func chaosClaims(_ ChaosConfig, r *ChaosResult) []Claim {
	const src = "DESIGN.md §3, chaos: the resilient controller rides the identical fault storm, the naive one sails over budget"
	n, s := r.Naive, r.Resilient
	return []Claim{
		atMost("resilient over-budget minutes", src, float64(s.Violations), 1),
		holds("naive ≥ 10× the resilient violations", src, n.Violations >= 10*max(1, s.Violations),
			vs(float64(n.Violations), float64(s.Violations)), "naive ≥ 10 × max(1, resilient)"),
		holds("no breaker trips in either run", src, !n.BreakerTripped && !s.BreakerTripped,
			fmt.Sprintf("%v / %v", n.BreakerTripped, s.BreakerTripped), "false / false"),
		holds("resilient flew degraded, held fail-safe and recovered; naive never did", src,
			s.Stats.DegradedTicks > 0 && s.Stats.FailSafeTicks > 0 && s.Stats.Recoveries > 0 &&
				n.Stats.DegradedTicks == 0 && n.Stats.FailSafeTicks == 0,
			fmt.Sprintf("resilient %d/%d/%d, naive %d/%d", s.Stats.DegradedTicks, s.Stats.FailSafeTicks,
				s.Stats.Recoveries, n.Stats.DegradedTicks, n.Stats.FailSafeTicks),
			"resilient degraded/failsafe/recoveries > 0, naive 0"),
		holds("both runs crashed and restarted once", src, n.Restarts == 1 && s.Restarts == 1,
			fmt.Sprintf("%d / %d", n.Restarts, s.Restarts), "1 / 1"),
	}
}

func ablationsClaims(c AmpereRunConfig, r ablationsResult) []Claim {
	// The uncontrolled heavy day of Table 2 violates on ≈ 35 % of its
	// minutes; "effective control" here is a small fraction of that.
	minutes := float64(c.Measure / sim.Minute)
	violations := func(rows []AblationOutcome) []float64 {
		v := make([]float64, len(rows))
		for i, o := range rows {
			v[i] = float64(o.Violations)
		}
		return v
	}
	sel, rst, et, hor := r.sweeps[0], violations(r.sweeps[1]), violations(r.sweeps[2]), r.sweeps[3]
	m := byName(r.capping, func(o CappingAblationRow) string { return o.Mechanism })
	prop, static, amp := m["capping-proportional"], m["capping-static"], m["ampere"]
	return []Claim{
		atMost("selection: most violations of any policy, per measured minute",
			"§3.5: hottest is chosen for capacity, not safety; EXPERIMENTS.md ablations", slices.Max(violations(sel))/minutes, 0.05),
		atMost("rstable: violation spread across the sweep, per measured minute",
			"§3.5: the value of rstable does not affect the performance much", (slices.Max(rst)-slices.Min(rst))/minutes, 0.02),
		holds("Et percentile: violations fall as the percentile rises", "§3.6: a conservative percentile makes Ampere preventive",
			et[0] >= et[1] && et[1] >= et[2], fmt.Sprintf("%v", et), "p50 ≥ p90 ≥ p99.5"),
		atMost("horizon: |violations(h=1) − violations(h=5)| per measured minute",
			"Lemma 3.1: SPCP solves PCP under normal demand", math.Abs(float64(hor[0].Violations-hor[1].Violations))/minutes, 0.02),
		holds("horizon: deeper horizons freeze more", "EXPERIMENTS.md ablations: deeper horizons pre-freeze for surges further ahead",
			hor[0].UMean <= hor[1].UMean && hor[1].UMean <= hor[2].UMean,
			fmt.Sprintf("%.3f / %.3f / %.3f", hor[0].UMean, hor[1].UMean, hor[2].UMean), "h1 ≤ h5 ≤ h15"),
		atMost("capping: both modes clamp power, higher P_max", "§2.1: capping clamps power by slowing running jobs",
			max(prop.PMax, static.PMax), 1.02),
		atLeast("capping: both modes slow jobs, lower p99 stretch", "§2.1: capping clamps power by slowing running jobs",
			min(prop.StretchP99, static.StretchP99), 1.05),
		atMost("capping: Ampere never slows a running job, p99 stretch", "§2.1: freezing touches no running job", amp.StretchP99, 1.01),
	}
}

func scaleClaims(_ scaleConfig, r scaleResult) []Claim {
	const weak = "EXPERIMENTS.md, weak scaling: mean util and placed/server stay flat across sizes"
	const fed = "EXPERIMENTS.md, federated scale: donors fund the sites near peak within the coordinator's clamp"
	base := r.rows[0]
	util, per := 0.0, 0.0
	for _, row := range r.rows {
		util = max(util, math.Abs(row.MeanUtil/base.MeanUtil-1))
		per = max(per, math.Abs(row.PlacedPerServer/base.PlacedPerServer-1))
	}
	lo, hi, busy := math.Inf(1), math.Inf(-1), true
	for _, row := range r.fed.Rows {
		lo, hi = min(lo, row.AllocRatio), max(hi, row.AllocRatio)
		busy = busy && row.Placed > 0 && row.Completed > 0 && row.MeanUtil > 0 && row.MeanUtil <= 1
	}
	return []Claim{
		atMost("largest mean-util deviation from one row", weak, util, 0.10),
		atMost("largest placed/server deviation from one row", weak, per, 0.10),
		holds("every DC places and completes jobs at a utilization in (0, 1]", fed, busy, fmt.Sprint(busy), "true"),
		holds("alloc/base has a donor and a recipient, inside [0.6, 1.5]", fed, lo < 1 && hi > 1 && lo >= 0.6 && hi <= 1.5,
			fmt.Sprintf("%.4f–%.4f", lo, hi), "min < 1 < max, within [0.6, 1.5]"),
	}
}

func gridstormClaims(_ GridstormConfig, runs []GridstormRun) []Claim {
	const src = "EXPERIMENTS.md, grid-event resilience: the cliff trips, the ramp rides through, zero sustained violations"
	m := byName(runs, func(r GridstormRun) string { return r.Regime })
	cliff, ramp := m["cliff"], m["ramp"]
	return []Claim{
		atMost("ramp trips", src, float64(ramp.Trips), 0),
		atMost("sustained violations, cliff + ramp", src, float64(cliff.SustainedViolations+ramp.SustainedViolations), 0),
		holds("ramp takes more budget steps than the cliff", src, ramp.BudgetChanges > cliff.BudgetChanges,
			fmt.Sprintf("%d vs %d", ramp.BudgetChanges, cliff.BudgetChanges), "ramp > cliff"),
		holds("the cliff burns more frozen capacity than the ramp", src,
			cliff.FrozenServerMinutes > ramp.FrozenServerMinutes,
			fmt.Sprintf("%d vs %d server-min", cliff.FrozenServerMinutes, ramp.FrozenServerMinutes), "cliff > ramp"),
		// The quick fleet's one curtailed row sits at the trip curve's knee:
		// its cliff trips at some seeds only.
		paperScale(holds("the cliff trips every curtailed row", src, cliff.Trips > 0 && cliff.Trips == cliff.CurtailedRows,
			fmt.Sprintf("%d of %d", cliff.Trips, cliff.CurtailedRows), "all")),
	}
}

func tournamentClaims(c TournamentConfig, r *TournamentResult) []Claim {
	const src = "EXPERIMENTS.md, policy tournament: the baseline self-replay is byte-identical; the ramped budget rides the storm"
	ramp, _ := core.ParsePatch(RampPatch(c.Grid))
	m := byName(r.Rows, func(t TournamentRow) string { return t.Patch })
	base, alt := m[""], m[ramp.String()]
	return []Claim{
		holds("baseline self-replay byte-identical", src, r.BaselineIdentical, fmt.Sprint(r.BaselineIdentical), "true"),
		holds("ramped budget trips no breaker and ranks above the baseline", src,
			alt.Rank > 0 && alt.Trips == 0 && alt.Rank < base.Rank,
			fmt.Sprintf("%d trips, rank %d vs %d", alt.Trips, alt.Rank, base.Rank), "0 trips, rank < baseline's"),
	}
}
