package experiment

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// This file wires the gridstorm scenario into the counterfactual what-if
// engine: the factual run is the *cliff* regime (the dip lands in one tick
// and every curtailed row's breaker trips), and the counterfactual asks the
// operator's question — "what if the budget had been ramped?" — by forking
// at the dip-onset journal event with a RampFrac policy patch. -exp whatif
// is the two-contender tournament of that patch against the baseline
// self-replay: the engine proves the ramped replay avoids every trip, which
// is exactly the ramp regime's outcome, now derived from a mid-run snapshot
// instead of a separate experiment.

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

// whatifTournament is -exp whatif on a gridstorm grid: the baseline
// self-replay against the budget ramped over RampMinutes ticks.
func whatifTournament(grid GridstormConfig) TournamentConfig {
	return TournamentConfig{Grid: grid, Patches: []string{"", RampPatch(grid)}}
}

// RampPatch is the patch that spreads the cliff's dip over RampMinutes ticks.
func RampPatch(grid GridstormConfig) string {
	return fmt.Sprintf("ramp=%g", grid.DipDepth/float64(grid.RampMinutes))
}

// rampRow is the whatif tournament's contender other than the baseline.
func rampRow(res *TournamentResult) TournamentRow {
	for _, r := range res.Rows {
		if r.Patch != "" {
			return r
		}
	}
	return TournamentRow{}
}

// FormatWhatif renders -exp whatif from its tournament; every line is
// deterministic.
func FormatWhatif(w io.Writer, res *TournamentResult) {
	cfg, alt := res.Grid, rampRow(res)
	fmt.Fprintf(w, "Counterfactual what-if on gridstorm cliff: %.0f%% dip, %d×%d servers, fork at dip onset\n",
		cfg.DipDepth*100, cfg.Rows, cfg.RowServers)
	fmt.Fprintf(w, "  fork event seq=%d at %s; snapshot witness %d bytes\n",
		res.ForkSeq, res.ForkTime, res.SnapshotBytes)
	if res.BaselineIdentical {
		fmt.Fprintf(w, "  self-replay: journal suffix byte-identical (restore verified)\n")
	} else {
		fmt.Fprintf(w, "  self-replay: DIVERGED — determinism contract broken\n")
	}
	fmt.Fprintf(w, "\n%s", alt.Report.Format())
	if alt.Report.TripsAvoided == alt.Report.Factual.Trips && alt.Report.Factual.Trips > 0 {
		fmt.Fprintf(w, "\nramped budget (%s) would have avoided all %d breaker trips\n",
			alt.Patch, alt.Report.Factual.Trips)
	}
}
