package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// This file is the policy tournament: the patch-grid sweep over the
// counterfactual engine that the policy framework exists to feed. One
// factual gridstorm run is forked at the dip onset, every candidate policy
// replays the storm from that shared snapshot, and the ranked table says
// which policy would have ridden it out best. The factual run and each
// replay rebuild from genesis (the whatif.Builder contract), so entries are
// independent and fan out across runner workers with byte-identical output
// at any worker count.

// TournamentConfig parameterizes one tournament.
type TournamentConfig struct {
	// Grid is the factual scenario: the gridstorm cliff regime.
	Grid GridstormConfig
	// Patches are the contenders, in core.ParsePatch syntax; the empty
	// string is the baseline (self-replay) and is always ranked with the
	// rest. Patch strings are canonicalized (parsed and re-rendered) before
	// ranking.
	Patches []string
}

// DefaultTournamentPatches is the standard contender grid: every selection
// policy, every Et estimator family, a combined entry, the spare-headroom
// release path, the horizon-5 solver, and the ramped-budget patch — plus the
// baseline self-replay.
func DefaultTournamentPatches(cfg GridstormConfig) []string {
	return []string{
		"", // baseline: the factual policy, replayed
		"policy=coldest",
		"policy=random",
		"et=static",
		"et=ewma",
		"et=seasonal",
		"policy=coldest et=ewma",
		"unfreeze=headroom",
		"horizon=5",
		RampPatch(cfg),
	}
}

// DefaultTournament is the paper-scale tournament (100k servers per entry).
// Unlike the published gridstorm regimes, the tournament grid carries a
// 2-million-user service on the curtailed rows, so contenders are also
// ranked on the request tails their policy would have produced.
func DefaultTournament() TournamentConfig {
	cfg := DefaultGridstorm()
	cfg.ServiceUsers = 2_000_000
	cfg.ServiceRPSPerUser = 0.0144
	cfg.ServicePerRow = 8
	cfg.ServiceContainers = 16
	return TournamentConfig{Grid: cfg, Patches: DefaultTournamentPatches(cfg)}
}

// TournamentRow is one contender's scored outcome over the post-fork window.
type TournamentRow struct {
	Rank int `json:"rank"`
	// Patch is the canonical patch string ("" = baseline self-replay).
	Patch string `json:"patch"`
	// Identical is true when the replay reproduced the factual journal
	// suffix event-for-event (must hold for the baseline row, whose check
	// also compares seqs).
	Identical bool `json:"identical"`
	// The ranking keys, most significant first.
	Trips               int      `json:"trips"`
	ViolationTicks      int64    `json:"violation_ticks"`
	FrozenServerMinutes float64  `json:"frozen_server_minutes"`
	TrippedDomains      []string `json:"tripped_domains,omitempty"`
	FreezeOps           int64    `json:"freeze_ops"`
	UnfreezeOps         int64    `json:"unfreeze_ops"`
	// P999US/SLOMissPct are the service tail-latency axis (0 when the grid
	// carries no service): a policy that leans on the safety-net capper
	// instead of freeze-and-displace stretches request tails, and ranks
	// below one that protects them.
	P999US     float64 `json:"service_p999_us,omitempty"`
	SLOMissPct float64 `json:"service_slo_miss_pct,omitempty"`
	// KPIs are the scenario scalars (scheduler job counters) at run end.
	KPIs map[string]float64 `json:"kpis,omitempty"`
	// Report is the full diff against the factual run.
	Report *whatif.Report `json:"-"`
}

// TournamentResult is the deterministic ranked outcome.
type TournamentResult struct {
	Grid GridstormConfig `json:"-"`
	// ForkSeq/ForkMS locate the shared fork event (the dip onset).
	ForkSeq  uint64 `json:"fork_seq"`
	ForkMS   int64  `json:"fork_ms"`
	ForkTime string `json:"fork_time"`
	// SnapshotBytes is the shared encoded-witness size.
	SnapshotBytes int `json:"snapshot_bytes"`
	// BaselineIdentical is the self-replay identity check for the "" entry
	// (false would mean the determinism contract broke — nothing else in
	// the table could be trusted).
	BaselineIdentical bool `json:"baseline_identical"`
	// Rows are ranked best-first: fewest trips, then fewest violation
	// ticks, then least frozen capacity, then most completed jobs, then
	// patch string. Every key is deterministic, so so is the ranking.
	Rows []TournamentRow `json:"rows"`
}

// RunTournament forks one factual gridstorm run at the dip onset and replays
// every patch from the shared snapshot, fanning entries across GOMAXPROCS
// workers.
func RunTournament(cfg TournamentConfig) (*TournamentResult, error) {
	if len(cfg.Patches) == 0 {
		return nil, fmt.Errorf("experiment: tournament has no patches")
	}
	// Parse (and canonicalize) the whole grid up front: a typo in entry 9
	// must not cost eight replays first.
	compiled := make([]tournamentEntry, len(cfg.Patches))
	for i, s := range cfg.Patches {
		p, err := core.ParsePatch(s)
		if err != nil {
			return nil, fmt.Errorf("experiment: tournament patch %d (%q): %w", i, s, err)
		}
		compiled[i] = tournamentEntry{patch: p, canonical: p.String()}
	}

	eng := &whatif.Engine{Build: GridstormBuilder(cfg.Grid, false)}

	// Locate the dip onset in a scout run; determinism makes it an exact
	// index of the factual event stream.
	scout, err := eng.Baseline(0)
	if err != nil {
		return nil, err
	}
	fork, found := whatif.FirstBudgetChange(scout.Events)
	if !found {
		return nil, fmt.Errorf("experiment: tournament: no budget-change event in the factual run")
	}

	fact, err := eng.Baseline(sim.Time(fork.SimMS))
	if err != nil {
		return nil, err
	}
	factView := fact.View(sim.Minute)

	// One unit per contender. Each replay rebuilds its own instance from
	// genesis and only reads the shared snapshot witness, so units are
	// independent; runner.Run returns results in input order whatever the
	// completion interleaving.
	units := make([]runner.Unit[*whatif.Report], len(compiled))
	for i := range compiled {
		entry := compiled[i]
		name := entry.canonical
		if name == "" {
			name = "(baseline)"
		}
		units[i] = runner.Unit[*whatif.Report]{
			Name: "tournament/" + name,
			Run: func() (*whatif.Report, error) {
				alt, err := eng.Replay(fact.Snap, entry.patch)
				if err != nil {
					return nil, err
				}
				rep := whatif.Diff(factView, alt.View(sim.Minute), fork.SimMS, entry.canonical)
				if entry.canonical == "" {
					// Diff aligns with seqs zeroed; the baseline must also
					// reproduce them, byte for byte.
					rep.Identical = rep.Identical &&
						bytes.Equal(whatif.CanonicalJSONL(alt.Events), whatif.CanonicalJSONL(fact.Events))
				}
				return rep, nil
			},
		}
	}
	reports, err := runner.Run(units, runner.Options{})
	if err != nil {
		return nil, err
	}

	res := &TournamentResult{
		Grid:              cfg.Grid,
		ForkSeq:           fork.Seq,
		ForkMS:            fork.SimMS,
		ForkTime:          sim.Time(fork.SimMS).String(),
		SnapshotBytes:     fact.SnapshotBytes,
		BaselineIdentical: true,
	}
	res.Rows = make([]TournamentRow, len(reports))
	for i, rep := range reports {
		kpis := make(map[string]float64, len(rep.KPIs))
		for _, k := range rep.KPIs {
			kpis[k.Name] = k.Alt
		}
		res.Rows[i] = TournamentRow{
			Patch:               compiled[i].canonical,
			Identical:           rep.Identical,
			Trips:               rep.Alt.Trips,
			ViolationTicks:      rep.Alt.ViolationTicks,
			FrozenServerMinutes: rep.Alt.FrozenServerMinutes,
			TrippedDomains:      rep.Alt.TrippedDomains,
			FreezeOps:           rep.Alt.FreezeOps,
			UnfreezeOps:         rep.Alt.UnfreezeOps,
			P999US:              kpis["service_p999_us"],
			SLOMissPct:          kpis["service_slo_miss_pct"],
			KPIs:                kpis,
			Report:              rep,
		}
		if compiled[i].canonical == "" && !rep.Identical {
			res.BaselineIdentical = false
		}
	}
	slices.SortFunc(res.Rows, cmpTournamentRows)
	for i := range res.Rows {
		res.Rows[i].Rank = i + 1
	}
	return res, nil
}

// tournamentEntry pairs a parsed patch with its canonical rendering.
type tournamentEntry struct {
	patch     core.PolicyPatch
	canonical string
}

// cmpTournamentRows orders best-first: fewest breaker trips, fewest
// violation ticks, least frozen capacity, best service tail (p999, then
// SLO-miss — both 0 and inert when the grid carries no service), most
// completed jobs, patch string as the total-order tiebreak.
func cmpTournamentRows(a, b TournamentRow) int {
	if a.Trips != b.Trips {
		if a.Trips < b.Trips {
			return -1
		}
		return 1
	}
	if a.ViolationTicks != b.ViolationTicks {
		if a.ViolationTicks < b.ViolationTicks {
			return -1
		}
		return 1
	}
	if a.FrozenServerMinutes != b.FrozenServerMinutes {
		if a.FrozenServerMinutes < b.FrozenServerMinutes {
			return -1
		}
		return 1
	}
	if a.P999US != b.P999US {
		if a.P999US < b.P999US {
			return -1
		}
		return 1
	}
	if a.SLOMissPct != b.SLOMissPct {
		if a.SLOMissPct < b.SLOMissPct {
			return -1
		}
		return 1
	}
	if ac, bc := a.KPIs["jobs_completed"], b.KPIs["jobs_completed"]; ac != bc {
		if ac > bc {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Patch, b.Patch)
}

// FormatTournament renders the ranked table; every byte is deterministic at
// a fixed configuration, whatever the worker count.
func FormatTournament(w io.Writer, res *TournamentResult) {
	cfg := res.Grid
	fmt.Fprintf(w, "Policy tournament on gridstorm cliff: %.0f%% dip, %d×%d servers, %d contenders\n",
		cfg.DipDepth*100, cfg.Rows, cfg.RowServers, len(res.Rows))
	fmt.Fprintf(w, "  fork event seq=%d at %s; shared snapshot witness %d bytes\n",
		res.ForkSeq, res.ForkTime, res.SnapshotBytes)
	if res.BaselineIdentical {
		fmt.Fprintf(w, "  baseline self-replay: byte-identical (restore verified)\n\n")
	} else {
		fmt.Fprintf(w, "  baseline self-replay: DIVERGED — determinism contract broken\n\n")
	}
	fmt.Fprintf(w, "%4s  %-28s %5s %9s %14s %10s %9s %9s %9s %10s %8s\n",
		"rank", "patch", "trips", "viol-tick", "frozen-srv-min", "p999(µs)", "slo-miss%", "freezes", "unfreezes", "jobs-done", "killed")
	for _, r := range res.Rows {
		patch := r.Patch
		if patch == "" {
			patch = "(baseline)"
		}
		fmt.Fprintf(w, "%4d  %-28s %5d %9d %14.1f %10.0f %9.3f %9d %9d %10.0f %8.0f\n",
			r.Rank, patch, r.Trips, r.ViolationTicks, r.FrozenServerMinutes,
			r.P999US, r.SLOMissPct, r.FreezeOps, r.UnfreezeOps,
			r.KPIs["jobs_completed"], r.KPIs["jobs_killed"])
	}
}

// WriteJSON emits the result as indented JSON (map keys sort, so the bytes
// are deterministic).
func (res *TournamentResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
