package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// This file wires the gridstorm scenario into the counterfactual what-if
// engine: the factual run is the *cliff* regime (the dip lands in one tick
// and every curtailed row's breaker trips), and the counterfactual asks the
// operator's question — "what if the budget had been ramped?" — by forking
// at the dip-onset journal event with a RampFrac policy patch. The engine
// proves the ramped replay avoids every trip, which is exactly the ramp
// regime's outcome, now derived from a mid-run snapshot instead of a
// separate experiment.

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

// WhatifResult is the -exp whatif demo's deterministic outcome.
type WhatifResult struct {
	Cfg GridstormConfig
	// ForkSeq/ForkMS locate the dip-onset journal event the replay forks at.
	ForkSeq uint64
	ForkMS  int64
	// SnapshotBytes is the encoded witness size.
	SnapshotBytes int
	// SelfIdentical is the self-replay identity check: replaying the
	// snapshot with an unchanged policy reproduced the factual journal
	// suffix byte-for-byte.
	SelfIdentical bool
	// Patch is the counterfactual policy; Report scores it.
	Patch  string
	Report *whatif.Report
}

// RunWhatif drives the demo: baseline the cliff regime, fork at the first
// budget-change event (the dip landing), self-replay to prove identity, then
// replay with the ramp patch and diff.
func RunWhatif(cfg GridstormConfig) (*WhatifResult, error) {
	if cfg.RampMinutes < 1 {
		return nil, fmt.Errorf("experiment: whatif ramp minutes %d must be ≥1", cfg.RampMinutes)
	}
	eng := &whatif.Engine{Build: GridstormBuilder(cfg, false)}

	// Locate the dip onset: determinism makes a fresh genesis run an exact
	// index of the factual event stream.
	scout, err := eng.Baseline(0)
	if err != nil {
		return nil, err
	}
	var fork *obs.Event
	for i := range scout.Events {
		if scout.Events[i].Action == "budget-change" {
			fork = &scout.Events[i]
			break
		}
	}
	if fork == nil {
		return nil, fmt.Errorf("experiment: whatif: no budget-change event in the factual run")
	}

	// Factual run with the witness captured at the fork boundary: the tick
	// that produced the dip's budget-change event has not yet run in the
	// restored state, so a patched policy is in force when it re-runs.
	fact, err := eng.Baseline(sim.Time(fork.SimMS))
	if err != nil {
		return nil, err
	}
	res := &WhatifResult{
		Cfg:           cfg,
		ForkSeq:       fork.Seq,
		ForkMS:        fork.SimMS,
		SnapshotBytes: len(fact.SnapBytes),
	}

	// Self-replay: same snapshot, empty patch — the journal suffix must be
	// byte-identical (DESIGN.md §9's restore proof, exercised every demo).
	self, err := eng.Replay(fact.Snap, core.PolicyPatch{})
	if err != nil {
		return nil, err
	}
	res.SelfIdentical = string(whatif.CanonicalJSONL(self.Events)) ==
		string(whatif.CanonicalJSONL(fact.Events))

	// The counterfactual: ramp the budget over RampMinutes ticks instead of
	// the cliff. This reproduces the ramp regime's dynamics from the factual
	// run's own mid-storm state.
	patch := fmt.Sprintf("ramp=%g", cfg.DipDepth/float64(cfg.RampMinutes))
	p, err := core.ParsePatch(patch)
	if err != nil {
		return nil, err
	}
	alt, err := eng.Replay(fact.Snap, p)
	if err != nil {
		return nil, err
	}
	res.Patch = p.String()
	res.Report = whatif.Diff(fact.View(sim.Minute), alt.View(sim.Minute), fork.SimMS, p.String())
	return res, nil
}

// FormatWhatif renders the demo outcome; every line is deterministic.
func FormatWhatif(w io.Writer, res *WhatifResult) {
	cfg := res.Cfg
	fmt.Fprintf(w, "Counterfactual what-if on gridstorm cliff: %.0f%% dip, %d×%d servers, fork at dip onset\n",
		cfg.DipDepth*100, cfg.Rows, cfg.RowServers)
	fmt.Fprintf(w, "  fork event seq=%d at %s; snapshot witness %d bytes\n",
		res.ForkSeq, sim.Time(res.ForkMS), res.SnapshotBytes)
	if res.SelfIdentical {
		fmt.Fprintf(w, "  self-replay: journal suffix byte-identical (restore verified)\n")
	} else {
		fmt.Fprintf(w, "  self-replay: DIVERGED — determinism contract broken\n")
	}
	fmt.Fprintf(w, "\n%s", res.Report.Format())
	if res.Report.TripsAvoided == res.Report.Factual.Trips && res.Report.Factual.Trips > 0 {
		fmt.Fprintf(w, "\nramped budget (%s) would have avoided all %d breaker trips\n",
			res.Patch, res.Report.Factual.Trips)
	}
}
