package scenario

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func validBase() *Spec {
	return &Spec{
		Seed: 1, Rows: 2, RowServers: 40, Hours: 1,
		TargetFrac: 0.6, Ampere: true,
	}
}

func TestValidateBudgetSchedule(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // substring of the error, "" = valid
	}{
		{"steps ok", func(s *Spec) {
			s.BudgetSchedule = &BudgetSchedule{Steps: []BudgetStep{{AtMinutes: 10, Frac: 0.8}, {AtMinutes: 20, Frac: 1}}}
		}, ""},
		{"needs ampere", func(s *Spec) {
			s.Ampere = false
			s.BudgetSchedule = &BudgetSchedule{RampFrac: 0.02}
		}, "need ampere"},
		{"dr needs ampere", func(s *Spec) {
			s.Ampere = false
			s.DemandResponse = []DemandResponse{{AtMinutes: 5, Depth: 0.2, DwellMinutes: 30}}
		}, "need ampere"},
		{"ramp out of range", func(s *Spec) {
			s.BudgetSchedule = &BudgetSchedule{RampFrac: 1.5}
		}, "ramp_frac"},
		{"step frac zero", func(s *Spec) {
			s.BudgetSchedule = &BudgetSchedule{Steps: []BudgetStep{{AtMinutes: 1, Frac: 0}}}
		}, "frac"},
		{"steps not increasing", func(s *Spec) {
			s.BudgetSchedule = &BudgetSchedule{Steps: []BudgetStep{{AtMinutes: 5, Frac: 0.9}, {AtMinutes: 5, Frac: 0.8}}}
		}, "not after"},
		{"step too far out", func(s *Spec) {
			s.BudgetSchedule = &BudgetSchedule{Steps: []BudgetStep{{AtMinutes: 1e9, Frac: 0.9}}}
		}, "at_minutes"},
		{"dr ok", func(s *Spec) {
			s.DemandResponse = []DemandResponse{{AtMinutes: 30, Depth: 0.2, DwellMinutes: 60, Rows: []int{0}}}
		}, ""},
		{"dr depth one", func(s *Spec) {
			s.DemandResponse = []DemandResponse{{AtMinutes: 30, Depth: 1, DwellMinutes: 60}}
		}, "depth"},
		{"dr bad row", func(s *Spec) {
			s.DemandResponse = []DemandResponse{{AtMinutes: 30, Depth: 0.2, DwellMinutes: 60, Rows: []int{2}}}
		}, "row 2"},
		{"dr zero dwell", func(s *Spec) {
			s.DemandResponse = []DemandResponse{{AtMinutes: 30, Depth: 0.2, DwellMinutes: 0}}
		}, "dwell"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validBase()
			tc.mut(s)
			err := s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestCompileBudgetSchedule(t *testing.T) {
	const budget = 1000.0
	warmup := sim.Duration(sim.Hour)
	wt := sim.Time(warmup)

	s := validBase()
	// No schedule at all compiles to nil.
	if cs := s.compileBudgetSchedule(0, budget, warmup); cs != nil {
		t.Fatalf("empty spec compiled to %+v", cs)
	}

	// A demand-response event on row 0 only: row 0 gets dip+restore steps,
	// row 1 compiles to nil.
	s.DemandResponse = []DemandResponse{{AtMinutes: 30, Depth: 0.2, DwellMinutes: 60, Rows: []int{0}}}
	cs := s.compileBudgetSchedule(0, budget, warmup)
	if cs == nil || len(cs.Steps) != 2 {
		t.Fatalf("row 0 schedule %+v, want 2 steps", cs)
	}
	if cs.Steps[0].At != wt+sim.Time(30*sim.Minute) || cs.Steps[0].BudgetW != 800 {
		t.Errorf("dip step %+v, want 800 W at warmup+30m", cs.Steps[0])
	}
	if cs.Steps[1].At != wt+sim.Time(90*sim.Minute) || cs.Steps[1].BudgetW != 1000 {
		t.Errorf("restore step %+v, want 1000 W at warmup+90m", cs.Steps[1])
	}
	if got := s.compileBudgetSchedule(1, budget, warmup); got != nil {
		t.Errorf("row 1 compiled to %+v, want nil", got)
	}

	// Schedule steps and an overlapping event compound multiplicatively.
	s.BudgetSchedule = &BudgetSchedule{
		RampFrac: 0.02,
		Steps:    []BudgetStep{{AtMinutes: 60, Frac: 0.9}},
	}
	cs = s.compileBudgetSchedule(0, budget, warmup)
	if cs.RampFrac != 0.02 {
		t.Errorf("ramp frac %v, want 0.02", cs.RampFrac)
	}
	want := []struct {
		at sim.Time
		w  float64
	}{
		{wt + sim.Time(30*sim.Minute), 800}, // dip
		{wt + sim.Time(60*sim.Minute), 720}, // step×dip
		{wt + sim.Time(90*sim.Minute), 900}, // restore, step remains
	}
	if len(cs.Steps) != len(want) {
		t.Fatalf("steps %+v, want %d", cs.Steps, len(want))
	}
	for i, w := range want {
		if cs.Steps[i].At != w.at || math.Abs(cs.Steps[i].BudgetW-w.w) > 1e-9 {
			t.Errorf("step %d = %+v, want %v W at %v", i, cs.Steps[i], w.w, w.at)
		}
	}
	// Row 1 sees only the schedule step.
	cs = s.compileBudgetSchedule(1, budget, warmup)
	if len(cs.Steps) != 1 || cs.Steps[0].BudgetW != 900 {
		t.Errorf("row 1 steps %+v, want single 900 W step", cs.Steps)
	}
	// Compiled schedules satisfy core's own validation.
	if err := cs.Validate(budget); err != nil {
		t.Errorf("compiled schedule fails core validation: %v", err)
	}
}

// TestScenarioDemandResponseRun builds and runs a small spec with a ramped
// demand-response event end to end: the controller must apply budget
// changes, and they must reach the tracker and breaker.
func TestScenarioDemandResponseRun(t *testing.T) {
	s := &Spec{
		Seed: 9, Rows: 2, RowServers: 40, WarmupHours: 1, Hours: 2,
		TargetFrac: 0.6, RO: 0.25, Ampere: true, Breaker: true,
		BudgetSchedule: &BudgetSchedule{RampFrac: 0.04},
		DemandResponse: []DemandResponse{{AtMinutes: 20, Depth: 0.2, DwellMinutes: 40, Rows: []int{0}}},
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	// 20 % dip at 4 %/tick: 5 ramp ticks down + 5 up = 10 changes on row 0.
	if b.BudgetChanges != 10 {
		t.Errorf("budget changes %d, want 10 (5 ramp ticks each way)", b.BudgetChanges)
	}
	// During the dwell the tracker's recorded budget must be the curtailed
	// one, and the breaker must have followed back to the base budget by the
	// end.
	mid := b.Tracker.IndexAt(sim.Time(sim.Hour) + sim.Time(40*sim.Minute))
	bs := b.Tracker.BudgetSeries(0, mid)
	if len(bs) == 0 || bs[0] >= b.RowBudgetW {
		t.Errorf("mid-dwell tracked budget %v, want under base %v", bs[0], b.RowBudgetW)
	}
	if got := b.Breakers[0].Budget(); got != b.RowBudgetW {
		t.Errorf("final breaker budget %v, want restored base %v", got, b.RowBudgetW)
	}
	if got := b.Breakers[1].Budget(); got != b.RowBudgetW {
		t.Errorf("row 1 breaker budget %v, want untouched base %v", got, b.RowBudgetW)
	}
}

// TestCapperProtectsTheBudgetInForce: with ampere and capping, a
// demand_response event moves the capper on each covered row to the
// curtailed budget for the event and back after it, and leaves the other
// rows' capping at the row budget.
func TestCapperProtectsTheBudgetInForce(t *testing.T) {
	s := &Spec{
		Seed: 9, Rows: 3, RowServers: 40, WarmupHours: 1, Hours: 2,
		TargetFrac: 0.6, RO: 0.25, Ampere: true, Capping: true,
		DemandResponse: []DemandResponse{{AtMinutes: 20, Depth: 0.2, DwellMinutes: 40, Rows: []int{0, 2}}},
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Rig.StartBase()
	b.Fleet.Start()
	check := func(at sim.Time, dipped bool) {
		t.Helper()
		if err := b.Rig.Run(at); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < s.Rows; r++ {
			want := b.RowBudgetW
			if dipped && r != 1 {
				want = b.RowBudgetW * (1 - 0.2)
			}
			if got := b.Capper.Budget(r); math.Abs(got-want) > 1e-9*want {
				t.Errorf("at %v: row %d capped at %v W, want %v", at, r, got, want)
			}
		}
	}
	warmup := sim.Time(sim.Hour)
	check(warmup+sim.Time(30*sim.Minute), true)  // mid-event
	check(warmup+sim.Time(90*sim.Minute), false) // restored
}
