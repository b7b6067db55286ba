package fleet

import (
	"fmt"
	"go/build"
	"strings"
	"testing"

	"repro/internal/breaker"
	"repro/internal/capping"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// The package sits below every builder of a controlled fleet: experiment,
// scenario and federate each import it, and federate once hand-wired its
// shards because the fleet lived in experiment, which imports federate. An
// import of any of them, or of a command, would bring that cycle back.
func TestBelowItsBuilders(t *testing.T) {
	forbidden := []string{"repro/internal/experiment", "repro/internal/scenario", "repro/internal/federate"}
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		for _, bad := range forbidden {
			if imp == bad || strings.HasPrefix(imp, bad+"/") {
				t.Errorf("internal/fleet imports %s, one of its builders", imp)
			}
		}
		if strings.HasPrefix(imp, "repro/cmd/") {
			t.Errorf("internal/fleet imports the command %s", imp)
		}
	}
}

// testFleet is three rows of 40 servers at 60 % load, controlled on rows 0
// and 1, with a breaker on every row and the capper on row 0 only. Each
// controlled row's budget dips by 20 % at minute 5, 5 % of base per tick.
func testFleet(margin float64) *Fleet {
	spec := stack.RowSpec(3, 40)
	budget := spec.RowRatedPowerW() * 0.9
	sched := &core.BudgetSchedule{RampFrac: 0.05, Steps: []core.BudgetStep{
		{At: sim.Time(5 * sim.Minute), BudgetW: 0.8 * budget * margin}}}
	bcfg := breaker.DefaultConfig(budget)
	return &Fleet{
		Stack: stack.Config{Seed: 3, Cluster: spec, Products: []workload.Product{
			workload.DefaultProduct("p", stack.JobsPerMinute(spec, 0.6, spec.TotalServers()))}},
		RowBudgetW: budget,
		RowName:    "row/%d",
		Control: &Control{Rows: 2, Margin: margin, Kr: stack.DefaultKr, Config: core.DefaultConfig(),
			Schedule: func(int) *core.BudgetSchedule { return sched }},
		Breaker: &bcfg,
		Capping: &Capping{Rows: 1, Config: capping.DefaultConfig()},
	}
}

// TestFleetProtectionsFollowTheBudget: on the tick that moves a row's
// effective budget, the row's breaker and (row 0 only) its capping domain
// move to the new budget over the margin; the uncontrolled row keeps the
// row budget, and BudgetChanges counts every movement.
func TestFleetProtectionsFollowTheBudget(t *testing.T) {
	for _, margin := range []float64{1, 0.985} { // 0.985: gridstorm's operator margin
		f := testFleet(margin)
		if err := f.Build(); err != nil {
			t.Fatal(err)
		}
		moves := 0
		f.Controller.OnBudgetChange(func(core.BudgetChange) { moves++ })
		f.Rig.StartBase()
		f.Start()
		for m := 1; m <= 12; m++ {
			if err := f.Rig.Run(sim.Time(m) * sim.Time(sim.Minute)); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 2; r++ {
				want := f.Controller.EffectiveBudget(r) / margin
				if got := f.Breakers[r].Budget(); got != want {
					t.Errorf("margin %v minute %d: row %d breaker at %v, want %v", margin, m, r, got, want)
				}
			}
			if got, want := f.Capper.Budget(0), f.Controller.EffectiveBudget(0)/margin; got != want {
				t.Errorf("margin %v minute %d: capper at %v, want %v", margin, m, got, want)
			}
			if got := f.Breakers[2].Budget(); got != f.RowBudgetW {
				t.Errorf("margin %v minute %d: uncontrolled row's breaker at %v, want %v", margin, m, got, f.RowBudgetW)
			}
		}
		// Four ramp ticks on each controlled row.
		if f.BudgetChanges != moves || moves < 8 {
			t.Errorf("margin %v: BudgetChanges %d, callback saw %d movements, want them equal and ≥ 8",
				margin, f.BudgetChanges, moves)
		}
		if got, want := f.Breakers[1].Budget(), 0.8*f.RowBudgetW; got < want*0.999999 || got > want*1.000001 {
			t.Errorf("margin %v: dipped breaker at %v, want %v", margin, got, want)
		}
	}
}

// TestFleetSelfReplay: a powermon-shaped fleet (controller with a
// demand-response schedule, observational breakers, a pinned service and a
// whole-run journal) replays itself from the dip onset through the what-if
// engine to an empty diff.
func TestFleetSelfReplay(t *testing.T) {
	spec := stack.RowSpec(2, 200)
	budget := spec.RowRatedPowerW() / 1.25
	end := sim.Time(90 * sim.Minute)
	sched := &core.BudgetSchedule{RampFrac: 0.02, Steps: []core.BudgetStep{
		{At: sim.Time(30 * sim.Minute), BudgetW: 0.8 * budget},
		{At: sim.Time(60 * sim.Minute), BudgetW: budget},
	}}
	bcfg := breaker.DefaultConfig(budget)
	build := func() (*whatif.Instance, error) {
		f := &Fleet{
			Stack: stack.Config{Seed: 1, Cluster: spec, Retention: 7 * 24 * 60, Products: []workload.Product{
				workload.DefaultProduct("mixed", stack.JobsPerMinute(spec, 0.75, spec.TotalServers()))}},
			RowBudgetW: budget,
			RowName:    "row/%d",
			Control: &Control{Rows: 2, Margin: 1, Kr: stack.DefaultKr, Config: core.DefaultConfig(),
				Schedule: func(int) *core.BudgetSchedule { return sched }},
			Breaker: &bcfg,
			Service: &Service{Rows: 2, Instances: 4, Containers: 8,
				Config: service.Config{Classes: service.DefaultClasses(20000, 0.05)}},
			Journal: RunJournal(2, end),
		}
		if err := f.Build(); err != nil {
			return nil, err
		}
		f.Rig.StartBase()
		f.Svc.Start()
		f.Start()
		inst := f.Instance(end, "fleet self-replay")
		inst.KPIs = func() map[string]float64 {
			return map[string]float64{"service_requests": float64(f.Svc.TotalServed())}
		}
		return inst, nil
	}
	eng := &whatif.Engine{Build: build}
	scout, err := eng.Baseline(0)
	if err != nil {
		t.Fatal(err)
	}
	dip, ok := whatif.FirstBudgetChange(scout.Events)
	if !ok {
		t.Fatal("no budget-change event in the journal")
	}
	fact, err := eng.Baseline(sim.Time(dip.SimMS))
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range fact.Snap.Breakers {
		if want := fmt.Sprintf("row/%d", r); b.Name != want {
			t.Errorf("breaker %d named %q, want %q", r, b.Name, want)
		}
	}
	self, err := eng.Replay(fact.Snap, core.PolicyPatch{})
	if err != nil {
		t.Fatal(err)
	}
	if fact.Evicted != 0 || self.Evicted != 0 {
		t.Errorf("the run journal evicted %d and %d events", fact.Evicted, self.Evicted)
	}
	rep := whatif.Diff(fact.View(sim.Minute), self.View(sim.Minute), dip.SimMS, "")
	if !rep.Identical || rep.TripsAvoided != 0 || rep.ViolationTicksAvoided != 0 || rep.CapacityMinutesGained != 0 {
		t.Fatalf("self-diff not empty:\n%s", rep.Format())
	}
	for _, k := range rep.KPIs {
		if k.Delta != 0 {
			t.Errorf("KPI %s delta %g in a self-replay", k.Name, k.Delta)
		}
	}
	if fact.KPIs["service_requests"] == 0 {
		t.Error("the service served nothing")
	}
}
