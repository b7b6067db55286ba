package core

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestEWMAEtConverges(t *testing.T) {
	e, err := NewEWMAEt(0.5, 2, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Estimate(0); got != 0.05 {
		t.Fatalf("cold estimate %v, want the 0.05 default", got)
	}
	for i := 0; i < 50; i++ {
		e.Add(sim.Time(i)*sim.Time(sim.Minute), 0.02)
	}
	// Constant input: mean → 0.02, deviation → 0.
	if got := e.Estimate(0); math.Abs(got-0.02) > 1e-6 {
		t.Errorf("estimate %v after constant 0.02 stream, want ≈0.02", got)
	}
	// A burst of larger increases must raise the margin above the mean.
	for i := 0; i < 5; i++ {
		e.Add(0, 0.2)
	}
	if got := e.Estimate(0); got <= 0.02 {
		t.Errorf("estimate %v did not react to a surge", got)
	}
}

func TestEWMAEtRejectsBadInput(t *testing.T) {
	if _, err := NewEWMAEt(0, 3, 0.05, 1); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewEWMAEt(math.NaN(), 3, 0.05, 1); err == nil {
		t.Error("NaN alpha accepted")
	}
	if _, err := NewEWMAEt(0.5, -1, 0.05, 1); err == nil {
		t.Error("negative band accepted")
	}
	if _, err := NewEWMAEt(0.5, 3, -0.05, 1); err == nil {
		t.Error("negative default accepted")
	}
	e, err := NewEWMAEt(0.5, 3, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Add(0, 0.01)
	before := e.Estimate(0)
	e.Add(0, math.NaN())
	e.Add(0, math.Inf(1))
	if got := e.Estimate(0); got != before {
		t.Errorf("non-finite deltas moved the estimate: %v → %v", before, got)
	}
	// A sustained decrease clamps at zero, never negative.
	for i := 0; i < 50; i++ {
		e.Add(0, -0.5)
	}
	if got := e.Estimate(0); got != 0 {
		t.Errorf("estimate %v after sustained decrease, want clamp at 0", got)
	}
}

func TestSeasonalNaiveEtUsesYesterdaysHour(t *testing.T) {
	s, err := NewSeasonalNaiveEt(0.05)
	if err != nil {
		t.Fatal(err)
	}
	hour9 := sim.Time(9 * sim.Hour)
	if got := s.Estimate(hour9); got != 0.05 {
		t.Fatalf("cold estimate %v, want default", got)
	}
	// Day 0, hour 9: maxima 0.03 then 0.08 then 0.01.
	s.Add(hour9, 0.03)
	s.Add(hour9.Add(sim.Minute), 0.08)
	s.Add(hour9.Add(2*sim.Minute), 0.01)
	// Still the same day: the estimate falls back to the running max.
	if got := s.Estimate(hour9); got != 0.08 {
		t.Errorf("same-day estimate %v, want running max 0.08", got)
	}
	// Day 1, hour 9: yesterday's max applies; today's accumulates anew.
	day1 := hour9.Add(24 * sim.Hour)
	s.Add(day1, 0.02)
	if got := s.Estimate(day1); got != 0.08 {
		t.Errorf("day-1 estimate %v, want yesterday's max 0.08", got)
	}
	// Day 2: yesterday is now day 1 (max 0.02).
	day2 := day1.Add(24 * sim.Hour)
	s.Add(day2, 0.001)
	if got := s.Estimate(day2); got != 0.02 {
		t.Errorf("day-2 estimate %v, want day-1 max 0.02", got)
	}
	// Another hour of day 2 has no history at all → default.
	if got := s.Estimate(day2.Add(2 * sim.Hour)); got != 0.05 {
		t.Errorf("unseen-hour estimate %v, want default", got)
	}
	// Negative maxima clamp at zero.
	neg, _ := NewSeasonalNaiveEt(0.05)
	neg.Add(hour9, -0.3)
	if got := neg.Estimate(hour9); got != 0 {
		t.Errorf("negative running max estimated %v, want 0", got)
	}
}

func TestSpareHeadroomTarget(t *testing.T) {
	pol := spareHeadroom{trigger: 0.05, stepFrac: 0.10}
	const n = 100
	// Thin headroom: p = 0.93, et = 0.05 → headroom 0.02 < trigger → hold.
	if got := pol.target(0.93, 0.05, 40, n, 0); got != 40 {
		t.Errorf("thin headroom target %d, want hold at 40", got)
	}
	// NaN power: no comparison holds → hold.
	if got := pol.target(math.NaN(), 0.05, 40, n, 0); got != 40 {
		t.Errorf("NaN power target %d, want hold at 40", got)
	}
	// Ample headroom: p = 0.5 → drain by one step (10% of 100).
	if got := pol.target(0.5, 0.05, 40, n, 0); got != 30 {
		t.Errorf("ample headroom target %d, want 30 (one step)", got)
	}
	// Remaining gap smaller than a step: land on the solver's target.
	if got := pol.target(0.5, 0.05, 8, n, 2); got != 2 {
		t.Errorf("small gap target %d, want solver target 2", got)
	}
	// Tiny domain: the step never rounds to zero.
	if got := pol.target(0.5, 0.05, 3, 5, 0); got != 2 {
		t.Errorf("tiny-domain target %d, want 2 (step clamps to 1)", got)
	}
}

// TestHeadroomUnfreezeHoldsThenDrains runs the policy through a real
// controller: a demand spike freezes servers; after the spike the default
// policy would release everything at once, while the headroom policy holds
// until the spare margin is wide enough and then drains step-bounded.
func TestHeadroomUnfreezeHoldsThenDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unfreeze = UnfreezeHeadroom
	cfg.HeadroomTrigger = 0.05
	cfg.HeadroomStepFrac = 0.10
	reader := uniformReader(10, 103) // p = 1.03: freeze
	api := newFakeAPI()
	d := Domain{Name: "g", Servers: ids(10), BudgetW: 1000, Kr: 0.10, Et: ConstantEt(0.05)}
	ctl, err := New(sim.NewEngine(), reader, api, cfg, []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Step(0)
	frozen := ctl.FrozenCount(0)
	if frozen == 0 {
		t.Fatal("spike froze nothing")
	}
	// Demand recedes to just under the threshold, but headroom is thin
	// (p = 0.92, threshold 0.95 → 0.03 < trigger): hold.
	for id := range reader.servers {
		reader.servers[id] = 92
	}
	ctl.Step(sim.Time(sim.Minute))
	if got := ctl.FrozenCount(0); got != frozen {
		t.Fatalf("thin headroom released: %d → %d frozen", frozen, got)
	}
	// Demand drops well clear (p = 0.5): drain at most one server (10% of
	// 10) per tick, not everything at once.
	for id := range reader.servers {
		reader.servers[id] = 50
	}
	ctl.Step(sim.Time(2 * sim.Minute))
	if got := ctl.FrozenCount(0); got != frozen-1 {
		t.Fatalf("drain released %d in one tick, want exactly 1 (step bound)", frozen-got)
	}
	for i := 3; ctl.FrozenCount(0) > 0 && i < 20; i++ {
		ctl.Step(sim.Time(i) * sim.Time(sim.Minute))
	}
	if got := ctl.FrozenCount(0); got != 0 {
		t.Errorf("%d servers still frozen after extended calm", got)
	}
}

// TestEtModeControllers: a controller per Et family runs the same ticks;
// each trains its own estimator type and stays on the control law.
func TestEtModeControllers(t *testing.T) {
	for _, mode := range []EtMode{EtStatic, EtEWMA, EtSeasonal} {
		cfg := DefaultConfig()
		cfg.EtMode = mode
		reader := uniformReader(10, 90)
		d := Domain{Name: "g", Servers: ids(10), BudgetW: 1000, Kr: 0.10}
		ctl, err := New(sim.NewEngine(), reader, newFakeAPI(), cfg, []Domain{d})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		ds := ctl.domains[0]
		if ds.trainer == nil {
			t.Fatalf("%v: controller not training", mode)
		}
		// Enough ticks for the estimators to leave their default Et.
		ticks := etMinSamples + 3
		for i := 0; i < ticks; i++ {
			ctl.Step(sim.Time(i) * sim.Time(sim.Minute))
			for id := range reader.servers {
				reader.servers[id] += 1 // +0.01 normalized per tick
			}
		}
		est := ds.et.Estimate(sim.Time(ticks) * sim.Time(sim.Minute))
		if math.IsNaN(est) || est < 0 {
			t.Errorf("%v: estimate %v", mode, est)
		}
		if mode == EtEWMA {
			if _, ok := ds.et.(*EWMAEt); !ok {
				t.Errorf("EtEWMA built %T", ds.et)
			}
			// Steady +0.01/min increases: the trained estimate must be in
			// that neighborhood, not the 0.05 default.
			if est < 0.005 || est > 0.05 {
				t.Errorf("EWMA estimate %v, want ≈0.01–0.04 after +0.01 stream", est)
			}
		}
		if mode == EtSeasonal {
			if _, ok := ds.et.(*SeasonalNaiveEt); !ok {
				t.Errorf("EtSeasonal built %T", ds.et)
			}
		}
	}
}

func TestModeStringsRoundTrip(t *testing.T) {
	for _, m := range []EtMode{EtStatic, EtEWMA, EtSeasonal} {
		got, err := ParseEtMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseEtMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, m := range []UnfreezeMode{UnfreezeAll, UnfreezeHeadroom} {
		got, err := ParseUnfreezeMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseUnfreezeMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, p := range []SelectionPolicy{SelectHottest, SelectColdest, SelectRandom} {
		got, err := ParseSelectionPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseSelectionPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseEtMode("bogus"); err == nil {
		t.Error("bogus et mode accepted")
	}
	if _, err := ParseUnfreezeMode("bogus"); err == nil {
		t.Error("bogus unfreeze mode accepted")
	}
	if _, err := ParseSelectionPolicy("bogus"); err == nil {
		t.Error("bogus selection policy accepted")
	}
}
