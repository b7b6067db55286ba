// Scenario-level tests for the what-if engine, driven through the gridstorm
// builder. External test package: experiment imports whatif, so these live on
// the other side of the boundary.
package whatif_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// firstBudgetChange locates the dip-onset event in a baseline's stream.
func firstBudgetChange(t *testing.T, events []obs.Event) obs.Event {
	t.Helper()
	for _, ev := range events {
		if ev.Action == "budget-change" {
			return ev
		}
	}
	t.Fatal("no budget-change event in baseline run")
	return obs.Event{}
}

// TestReplayIdentityMidStorm pins the DESIGN.md §9 restore contract at the
// hardest instant — mid-storm, two ticks after the dip lands, frozen sets and
// breaker heat nonzero. The journal suffix of a self-replay must be
// byte-identical to the factual run's.
func TestReplayIdentityMidStorm(t *testing.T) {
	cfg := experiment.QuickGridstorm()
	eng := &whatif.Engine{Build: experiment.GridstormBuilder(cfg, false)}

	scout, err := eng.Baseline(0)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if scout.Evicted != 0 {
		t.Fatalf("journal evicted %d events; builder cap too small", scout.Evicted)
	}
	dip := firstBudgetChange(t, scout.Events)
	forkT := sim.Time(dip.SimMS).Add(2 * sim.Minute)

	fact, err := eng.Baseline(forkT)
	if err != nil {
		t.Fatalf("baseline(fork): %v", err)
	}
	self, err := eng.Replay(fact.Snap, core.PolicyPatch{})
	if err != nil {
		t.Fatalf("self-replay: %v", err)
	}
	fs, ss := whatif.CanonicalJSONL(fact.Events), whatif.CanonicalJSONL(self.Events)
	if string(fs) != string(ss) {
		t.Fatalf("self-replay journal suffix diverged (%d vs %d events)",
			len(fact.Events), len(self.Events))
	}
	rep := whatif.Diff(fact.View(sim.Minute), self.View(sim.Minute), dip.SimMS, "")
	if !rep.Identical {
		t.Fatalf("self-diff not identical:\n%s", rep.Format())
	}
}

// TestReplaySeedMismatchRejected: a witness from one seed must not verify
// against a builder running another.
func TestReplaySeedMismatchRejected(t *testing.T) {
	cfg := experiment.QuickGridstorm()
	eng := &whatif.Engine{Build: experiment.GridstormBuilder(cfg, false)}
	fact, err := eng.Baseline(sim.Time(cfg.Warmup))
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	eng2 := &whatif.Engine{Build: experiment.GridstormBuilder(other, false)}
	if _, err := eng2.Replay(fact.Snap, core.PolicyPatch{}); err == nil {
		t.Fatal("replay accepted a snapshot from a different seed")
	} else if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("want mismatch error, got: %v", err)
	}
}

// TestWhatifSelfDiff400 is the tier-1 smoke: snapshot a 400-server gridstorm
// run mid-storm, self-replay, and require an empty diff (Identical, zero
// deltas). `make whatif-smoke` runs exactly this test.
func TestWhatifSelfDiff400(t *testing.T) {
	cfg := experiment.QuickGridstorm()
	cfg.Rows = 5 // 5 × 80 = 400 servers
	eng := &whatif.Engine{Build: experiment.GridstormBuilder(cfg, false)}

	scout, err := eng.Baseline(0)
	if err != nil {
		t.Fatal(err)
	}
	dip := firstBudgetChange(t, scout.Events)

	fact, err := eng.Baseline(sim.Time(dip.SimMS))
	if err != nil {
		t.Fatal(err)
	}
	self, err := eng.Replay(fact.Snap, core.PolicyPatch{})
	if err != nil {
		t.Fatal(err)
	}
	rep := whatif.Diff(fact.View(sim.Minute), self.View(sim.Minute), dip.SimMS, "")
	if !rep.Identical {
		t.Fatalf("self-diff not identical:\n%s", rep.Format())
	}
	if rep.TripsAvoided != 0 || rep.ViolationTicksAvoided != 0 || rep.CapacityMinutesGained != 0 {
		t.Fatalf("self-diff has nonzero deltas:\n%s", rep.Format())
	}
	for _, d := range rep.Domains {
		if d.DivergedAtMS >= 0 {
			t.Fatalf("domain %s diverged in a self-replay at %s", d.Domain, d.DivergedTime)
		}
	}
	for _, k := range rep.KPIs {
		if k.Delta != 0 {
			t.Fatalf("KPI %s delta %g in a self-replay", k.Name, k.Delta)
		}
	}
}

// TestReplayCounterfactualAvoidsTrips: forking the cliff regime at dip onset
// with the ramp patch must avoid every factual breaker trip (the ride-through
// property, now derived from a mid-run snapshot instead of a separate run).
func TestReplayCounterfactualAvoidsTrips(t *testing.T) {
	cfg := experiment.QuickGridstorm()
	eng := &whatif.Engine{Build: experiment.GridstormBuilder(cfg, false)}

	scout, err := eng.Baseline(0)
	if err != nil {
		t.Fatal(err)
	}
	dip := firstBudgetChange(t, scout.Events)
	fact, err := eng.Baseline(sim.Time(dip.SimMS))
	if err != nil {
		t.Fatal(err)
	}
	if len(fact.TrippedBreakers) == 0 {
		t.Fatal("cliff regime tripped no breakers; scenario lost its teeth")
	}
	patch, err := core.ParsePatch("ramp=0.02")
	if err != nil {
		t.Fatal(err)
	}
	alt, err := eng.Replay(fact.Snap, patch)
	if err != nil {
		t.Fatal(err)
	}
	if len(alt.TrippedBreakers) != 0 {
		t.Fatalf("ramped counterfactual still tripped %v", alt.TrippedBreakers)
	}
	rep := whatif.Diff(fact.View(sim.Minute), alt.View(sim.Minute), dip.SimMS, patch.String())
	if rep.Identical {
		t.Fatal("counterfactual reported identical to factual")
	}
	if rep.TripsAvoided != len(fact.TrippedBreakers) {
		t.Fatalf("trips avoided %d, want %d", rep.TripsAvoided, len(fact.TrippedBreakers))
	}
	if rep.CapacityMinutesGained <= 0 {
		t.Fatalf("expected capacity gain from ramped budget, got %g", rep.CapacityMinutesGained)
	}
}

// TestEngineMetrics: replays feed the whatif_* metric families.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	met := whatif.NewMetrics(reg)
	cfg := experiment.QuickGridstorm()
	eng := &whatif.Engine{Build: experiment.GridstormBuilder(cfg, false), Met: met}
	if _, err := eng.Baseline(0); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{"whatif_replays_total 1", "whatif_replay_failures_total 0",
		"whatif_replay_duration_seconds", "whatif_snapshot_bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}
