// Package whatif is the counterfactual engine on top of the decision
// journal: snapshot the full control-plane state at any journal event, fork
// the simulation, replay it with an alternative policy/parameter set against
// the same deterministically seeded workload and chaos streams, and diff the
// factual and counterfactual journals into a scored report ("a ramped budget
// would have avoided K breaker trips").
//
// The engine exploits the DESIGN.md §7 determinism contract: a simulation is
// a pure function of its seed, so re-running from genesis reproduces every
// event byte-for-byte. A Snapshot is therefore a *witness*, not a
// rehydration source — Restore rebuilds the stack from genesis via the
// run's Builder, fast-forwards to the snapshot instant, and verifies the
// reconstructed state matches the witness exactly before diverging. The
// cost is re-simulation time; the payoff is that no RNG internals, event
// queues, or scheduler heaps ever need serializing (DESIGN.md §9).
package whatif

import (
	"fmt"
	"maps"
	"reflect"

	"repro/internal/breaker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
)

// Snapshot captures the mutable control-plane state at a tick boundary: the
// state with every event strictly before SimMS applied. Every field takes
// part in its canonical encoding (Encode, codec.go), which is what Verify
// compares.
type Snapshot struct {
	// SimMS is the capture instant in simulated milliseconds.
	SimMS int64
	// Seed is the run's root seed; ConfigTag fingerprints the scenario
	// configuration. A snapshot only restores onto a builder with the same
	// seed and tag.
	Seed      uint64
	ConfigTag string
	// JournalSeq is the journal's total event count at capture — the seq the
	// next appended event will get. The replayed suffix starts here.
	JournalSeq uint64

	Domains  []core.DomainSnapshot
	Servers  []cluster.ServerState
	Monitor  monitor.State
	Breakers []BreakerSnapshot
}

// BreakerSnapshot is one named breaker's state.
type BreakerSnapshot struct {
	Name  string
	State breaker.State
}

// NamedBreaker pairs a live breaker with its domain name.
type NamedBreaker struct {
	Name string
	B    *breaker.Breaker
}

// Instance is one fully constructed simulation stack, produced by a Builder.
// Everything the engine needs to drive, capture, and score a run hangs off
// it; the builder owns all construction-time wiring (workload, chaos,
// controller, breakers, journal instrumentation).
type Instance struct {
	// Stack is the pipeline under the controller: its engine is what runs,
	// its cluster and monitor are captured, its scheduler's job counters are
	// the jobs_* KPIs of every diff report. Its Seed, with ConfigTag, must
	// be stable across Build calls for the same scenario — they gate
	// snapshot/builder compatibility.
	Stack     *stack.Stack
	ConfigTag string
	Journal   *obs.Journal
	Ctl       *core.Controller
	// Breakers lists the per-domain breakers in a fixed (domain) order.
	Breakers []NamedBreaker
	// End is where the scenario naturally stops.
	End sim.Time
	// KPIs, when non-nil, returns further scenario scalars (e.g. a hosted
	// service's tail) folded into the diff report beside the jobs_* ones.
	// Keys must be deterministic.
	KPIs func() map[string]float64
}

// kpis returns the scheduler's job counters and the scenario's own scalars.
func (inst *Instance) kpis() map[string]float64 {
	s := inst.Stack.Sched.Stats()
	kpis := map[string]float64{
		"jobs_submitted": float64(s.Submitted),
		"jobs_placed":    float64(s.Placed),
		"jobs_completed": float64(s.Completed),
		"jobs_queued":    float64(s.Queued),
		"jobs_overflow":  float64(s.Overflowed),
		"jobs_killed":    float64(s.Killed),
	}
	if inst.KPIs != nil {
		maps.Copy(kpis, inst.KPIs())
	}
	return kpis
}

// Builder constructs a fresh Instance of one scenario from genesis. It must
// be safe to call repeatedly, and every call must produce a byte-identical
// run (same seed, same wiring) — the engine leans on that to locate events
// and verify witnesses.
type Builder func() (*Instance, error)

// Capture exports inst's full mutable state as a Snapshot at the current
// simulation time. The caller is responsible for having advanced the engine
// to a tick boundary (no event at the current instant has partially run).
func Capture(inst *Instance, at sim.Time) *Snapshot {
	snap := &Snapshot{
		SimMS:      int64(at),
		Seed:       inst.Stack.Seed,
		ConfigTag:  inst.ConfigTag,
		JournalSeq: inst.Journal.Total(),
		Domains:    inst.Ctl.ExportState(),
		Servers:    inst.Stack.Cluster.ExportState(),
		Monitor:    inst.Stack.Mon.ExportState(),
	}
	snap.Breakers = make([]BreakerSnapshot, len(inst.Breakers))
	for i, nb := range inst.Breakers {
		snap.Breakers[i] = BreakerSnapshot{Name: nb.Name, State: nb.B.ExportState()}
	}
	return snap
}

// Verify checks that a freshly reconstructed snapshot is byte-identical to
// the witness it is supposed to reproduce — the Restore-side proof that the
// rebuild really did land in the same state. Equality is judged on the
// canonical encoding, which is NaN-safe (bit comparison, not ==).
func Verify(witness, rebuilt *Snapshot) error {
	return verify(witness, rebuilt, Encode(rebuilt))
}

// verify is Verify given rebuilt's encoding rb.
func verify(witness, rebuilt *Snapshot, rb []byte) error {
	if witness.ConfigTag != rebuilt.ConfigTag {
		return fmt.Errorf("whatif: ConfigTag mismatch: snapshot %q vs builder %q",
			witness.ConfigTag, rebuilt.ConfigTag)
	}
	if witness.Seed != rebuilt.Seed {
		return fmt.Errorf("whatif: Seed mismatch: snapshot %d vs builder %d",
			witness.Seed, rebuilt.Seed)
	}
	if string(Encode(witness)) != string(rb) {
		return fmt.Errorf("whatif: reconstructed state diverges from snapshot witness at t=%s: %s",
			sim.Time(witness.SimMS), firstDiff("", reflect.ValueOf(*witness), reflect.ValueOf(*rebuilt)))
	}
	return nil
}
