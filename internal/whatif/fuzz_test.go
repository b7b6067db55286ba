package whatif_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// FuzzForkTick forks the quick gridstorm cliff run at a fuzzed instant (in
// simulated milliseconds). A baseline captured there and its self-replay
// journal the same suffix byte for byte; an instant outside [0, End] is
// refused by both. The seeds are genesis, the dip onset, an instant in the
// middle of a minute, End and End+1ms.
func FuzzForkTick(f *testing.F) {
	build := experiment.GridstormBuilder(experiment.QuickGridstorm(), false)
	eng := &whatif.Engine{Build: build}
	inst, err := build()
	if err != nil {
		f.Fatal(err)
	}
	end := int64(inst.End)
	scout, err := eng.Baseline(0)
	if err != nil {
		f.Fatal(err)
	}
	dip, ok := whatif.FirstBudgetChange(scout.Events)
	if !ok {
		f.Fatal("no budget-change event in the baseline run")
	}
	for _, at := range []int64{0, dip.SimMS, dip.SimMS + int64(90*sim.Second), end, end + 1} {
		f.Add(at)
	}
	f.Fuzz(func(t *testing.T, at int64) {
		fact, err := eng.Baseline(sim.Time(at))
		if at < 0 || at > end {
			if err == nil {
				t.Fatalf("Baseline accepted instant %d outside [0, %d]", at, end)
			}
			if _, err := eng.Replay(&whatif.Snapshot{SimMS: at}, core.PolicyPatch{}); err == nil {
				t.Fatalf("Replay accepted instant %d outside [0, %d]", at, end)
			}
			return
		}
		if err != nil {
			t.Fatalf("baseline at %d: %v", at, err)
		}
		self, err := eng.Replay(fact.Snap, core.PolicyPatch{})
		if err != nil {
			t.Fatalf("self-replay at %d: %v", at, err)
		}
		if !bytes.Equal(whatif.CanonicalJSONL(fact.Events), whatif.CanonicalJSONL(self.Events)) {
			t.Fatalf("self-replay at %d diverged: %d vs %d suffix events", at, len(fact.Events), len(self.Events))
		}
	})
}
