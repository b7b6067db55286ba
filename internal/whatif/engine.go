package whatif

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Metrics is the engine's optional observability wiring, shared across
// replays (register once per registry; create Engines freely).
type Metrics struct {
	replays   *obs.Counter
	failures  *obs.Counter
	replayDur *obs.Histogram
	snapBytes *obs.Histogram
}

// NewMetrics registers the what-if families on reg (nil returns nil):
//
//	whatif_replays_total            counter
//	whatif_replay_failures_total    counter
//	whatif_replay_duration_seconds  summary (log-histogram backed)
//	whatif_snapshot_bytes           summary of encoded snapshot sizes
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		replays: reg.Counter("whatif_replays_total",
			"Completed counterfactual replays (baselines included)."),
		failures: reg.Counter("whatif_replay_failures_total",
			"Replays that failed (build error, witness mismatch, bad patch)."),
		replayDur: reg.Histogram("whatif_replay_duration_seconds",
			"Wall-clock duration of one replay, genesis fast-forward included.",
			1e-6, 3600, 400),
		snapBytes: reg.Histogram("whatif_snapshot_bytes",
			"Encoded snapshot-witness size in bytes.",
			1, 1e9, 400),
	}
}

// Result is one completed run — factual baseline or counterfactual replay.
type Result struct {
	// Snap is the state witness captured at the fork instant;
	// SnapshotBytes is the length of its canonical encoding (Encode).
	Snap          *Snapshot
	SnapshotBytes int
	// Events is the journal suffix from Snap.JournalSeq on (the whole
	// journal for a genesis run); Evicted counts ring overwrites — nonzero
	// means the suffix is incomplete and the diff untrustworthy.
	Events  []obs.Event
	Evicted uint64
	// TrippedBreakers lists breaker domains left open at End, in breaker
	// order; KPIs holds the scheduler's jobs_* counters and the instance's
	// scenario scalars.
	TrippedBreakers []string
	KPIs            map[string]float64
	// Elapsed is the wall-clock replay cost.
	Elapsed time.Duration
}

// Engine drives snapshot/fork/replay over one scenario Builder.
type Engine struct {
	Build Builder
	Met   *Metrics
}

// FirstBudgetChange returns the first "budget-change" event of evs: the
// onset of a grid event, where a counterfactual forks when no event is named.
func FirstBudgetChange(evs []obs.Event) (obs.Event, bool) {
	for i := range evs {
		if evs[i].Action == "budget-change" {
			return evs[i], true
		}
	}
	return obs.Event{}, false
}

// Baseline runs the scenario from genesis to its natural end, capturing the
// state witness at tick boundary at (0 = genesis: capture before anything
// runs). The returned Result is the factual side of a diff.
func (e *Engine) Baseline(at sim.Time) (*Result, error) {
	return e.run(at, core.PolicyPatch{}, nil)
}

// Replay restores snap — rebuilding from genesis, fast-forwarding to
// snap.SimMS, and verifying the reconstructed state against the witness —
// then applies patch and runs to the scenario end. An empty patch replays
// the factual policy: its journal suffix must equal the baseline's
// byte-for-byte (the self-replay identity the tests pin).
func (e *Engine) Replay(snap *Snapshot, patch core.PolicyPatch) (*Result, error) {
	return e.run(sim.Time(snap.SimMS), patch, snap)
}

func (e *Engine) run(at sim.Time, patch core.PolicyPatch, expect *Snapshot) (*Result, error) {
	start := time.Now()
	res, err := e.runInner(at, patch, expect)
	if e.Met != nil {
		if err != nil {
			e.Met.failures.Inc()
		} else {
			e.Met.replays.Inc()
			e.Met.replayDur.Observe(time.Since(start).Seconds())
			e.Met.snapBytes.Observe(float64(res.SnapshotBytes))
		}
	}
	if res != nil {
		res.Elapsed = time.Since(start)
	}
	return res, err
}

func (e *Engine) runInner(at sim.Time, patch core.PolicyPatch, expect *Snapshot) (*Result, error) {
	inst, err := e.Build()
	if err != nil {
		return nil, fmt.Errorf("whatif: build: %w", err)
	}
	if at < 0 || at > inst.End {
		return nil, fmt.Errorf("whatif: snapshot instant %v outside [0, %v]", at, inst.End)
	}
	// Fast-forward to the capture boundary: "state with every event strictly
	// before at applied". Engine.RunUntil(t) is inclusive of events at t, so
	// stop one millisecond short; control ticks land on whole intervals, so
	// at-1ms holds no events of its own. at == 0 captures genesis untouched.
	if at > 0 {
		if err := inst.Stack.Run(at - 1); err != nil {
			return nil, fmt.Errorf("whatif: fast-forward to %v: %w", at, err)
		}
	}
	snap := Capture(inst, at)
	enc := Encode(snap)
	if expect != nil {
		if err := verify(expect, snap, enc); err != nil {
			return nil, err
		}
	}
	size := len(enc) // only the size outlives the replay; a 100k-server encoding is 4.3 MB
	if !patch.Empty() {
		if err := inst.Ctl.Reconfigure(patch); err != nil {
			return nil, err
		}
	}
	if err := inst.Stack.Run(inst.End); err != nil {
		return nil, fmt.Errorf("whatif: replay to %v: %w", inst.End, err)
	}

	res := &Result{
		Snap:          snap,
		SnapshotBytes: size,
		Events:        inst.Journal.Since(snap.JournalSeq),
		Evicted:       inst.Journal.Evicted(),
	}
	for _, nb := range inst.Breakers {
		if tripped, _ := nb.B.Tripped(); tripped {
			res.TrippedBreakers = append(res.TrippedBreakers, nb.Name)
		}
	}
	res.KPIs = inst.kpis()
	return res, nil
}
