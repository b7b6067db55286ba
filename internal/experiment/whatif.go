package experiment

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// This file wires the gridstorm scenario into the counterfactual what-if
// engine: the factual run is the *cliff* regime (the dip lands in one tick
// and every curtailed row's breaker trips), and the counterfactual asks the
// operator's question — "what if the budget had been ramped?" — by forking
// at the dip-onset journal event with a RampFrac policy patch. The
// tournament, `ampere-trace why` and internal/whatif's tests build on it.

// GridstormBuilder adapts one gridstorm regime to the what-if engine. Every
// call rebuilds the identical deterministic run from genesis (the Builder
// contract); the journal is sized to retain the whole run, so diffs never
// lose events to ring eviction.
func GridstormBuilder(cfg GridstormConfig, ramped bool) whatif.Builder {
	return func() (*whatif.Instance, error) {
		endT := sim.Time(cfg.Warmup+cfg.DipAfter) + sim.Time(cfg.DipLen) + sim.Time(cfg.Tail)
		minutes := int(endT / sim.Time(sim.Minute))
		journal := obs.NewJournal(cfg.Rows * (minutes + 4) * 2)
		st, err := setupGridstorm(cfg, ramped, journal)
		if err != nil {
			return nil, err
		}
		breakers := make([]whatif.NamedBreaker, cfg.Rows)
		for r := 0; r < cfg.Rows; r++ {
			breakers[r] = whatif.NamedBreaker{Name: fmt.Sprintf("row%d", r), B: st.breakers[r]}
		}
		inst := &whatif.Instance{
			Stack:    st.rig,
			Journal:  journal,
			Ctl:      st.ctl,
			Breakers: breakers,
			End:      st.endT,
			ConfigTag: fmt.Sprintf("gridstorm/%s seed=%d rows=%dx%d target=%g budget=%g curt=%g dip=%g len=%d ramp=%d trip=%g",
				st.regime, cfg.Seed, cfg.Rows, cfg.RowServers, cfg.TargetFrac, cfg.BudgetFrac,
				cfg.CurtailedFrac, cfg.DipDepth, int64(cfg.DipLen/sim.Minute), cfg.RampMinutes,
				cfg.TripOverloadSeconds),
		}
		if st.svc != nil {
			inst.KPIs = func() map[string]float64 {
				return map[string]float64{
					"service_requests":     float64(st.svc.TotalServed()),
					"service_p999_us":      st.svc.AggregateLatencyQuantileUS(0.999),
					"service_slo_miss_pct": st.svc.TotalSLOMissRate() * 100,
				}
			}
		}
		return inst, nil
	}
}

// RampPatch is the patch that spreads the cliff's dip over RampMinutes ticks.
func RampPatch(grid GridstormConfig) string {
	return fmt.Sprintf("ramp=%g", grid.DipDepth/float64(grid.RampMinutes))
}
