package capping

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func newCluster(t *testing.T, servers int) *cluster.Cluster {
	t.Helper()
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 1, 1, servers
	sp.NoiseSigmaW = 0
	c, err := cluster.New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 2)
	if _, err := New(eng, Config{Interval: 0}, nil); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := New(eng, DefaultConfig(), []Domain{{Name: "x", Servers: nil, BudgetW: 1}}); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := New(eng, DefaultConfig(), []Domain{{Name: "x", Servers: c.Row(0), BudgetW: 0}}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestCapsWhenOverBudget(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 4)
	for _, sv := range c.Servers {
		sv.Allocate(c.Spec.Containers, float64(c.Spec.Containers)) // 250 W each
	}
	budget := 900.0 // demand 1000 W
	cp, err := New(eng, DefaultConfig(), []Domain{{Name: "row", Servers: c.Row(0), BudgetW: budget}})
	if err != nil {
		t.Fatal(err)
	}
	cp.Start()
	if err := eng.RunUntil(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := c.RowDrawW(0); got > budget+1e-6 {
		t.Errorf("row draw %v over budget %v", got, budget)
	}
	for _, sv := range c.Servers {
		if !sv.Capped() {
			t.Errorf("server %d not capped", sv.ID)
		}
		if sv.Speed() >= 1 {
			t.Errorf("server %d speed %v, want < 1", sv.ID, sv.Speed())
		}
	}
	st := cp.Stats(0)
	if st.CappedIntervals == 0 || st.CapTransitions != 4 {
		t.Errorf("stats %+v", st)
	}
}

func TestUncapsWhenUnderBudget(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 2)
	for _, sv := range c.Servers {
		sv.Allocate(c.Spec.Containers, float64(c.Spec.Containers))
	}
	cp, err := New(eng, DefaultConfig(), []Domain{{Name: "row", Servers: c.Row(0), BudgetW: 450}})
	if err != nil {
		t.Fatal(err)
	}
	cp.Start()
	eng.RunUntil(sim.Time(sim.Second))
	if !c.Server(0).Capped() {
		t.Fatal("not capped under overload")
	}
	// Load drops: release everything.
	for _, sv := range c.Servers {
		sv.Release(c.Spec.Containers, float64(c.Spec.Containers))
	}
	eng.RunUntil(sim.Time(3 * sim.Second))
	for _, sv := range c.Servers {
		if sv.Capped() {
			t.Errorf("server %d still capped after load drop", sv.ID)
		}
		if sv.Speed() != 1 {
			t.Errorf("server %d speed %v", sv.ID, sv.Speed())
		}
	}
}

func TestProportionalFairness(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 2)
	sp := c.Spec
	// Server 0 at full load, server 1 at half load.
	c.Server(0).Allocate(sp.Containers, float64(sp.Containers))
	c.Server(1).Allocate(sp.Containers/2, float64(sp.Containers)/2)
	demand := c.Server(0).DemandW() + c.Server(1).DemandW()
	budget := demand - 40
	cp, err := New(eng, DefaultConfig(), []Domain{{Name: "row", Servers: c.Row(0), BudgetW: budget}})
	if err != nil {
		t.Fatal(err)
	}
	cp.Start()
	eng.RunUntil(sim.Time(sim.Second))
	// Both servers' active power scaled by the same factor.
	idle := sp.IdlePowerW
	f0 := (c.Server(0).DrawW() - idle) / (c.Server(0).DemandW() - idle)
	f1 := (c.Server(1).DrawW() - idle) / (c.Server(1).DemandW() - idle)
	if math.Abs(f0-f1) > 1e-9 {
		t.Errorf("unequal scaling: %v vs %v", f0, f1)
	}
	if total := c.RowDrawW(0); math.Abs(total-budget) > 1e-6 {
		t.Errorf("total draw %v, want %v", total, budget)
	}
}

func TestBudgetBelowIdleFloorsFrequency(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 2)
	for _, sv := range c.Servers {
		sv.Allocate(c.Spec.Containers, float64(c.Spec.Containers))
	}
	// Budget below the 2×165 W idle floor: caps bottom out, domain stays hot.
	cp, err := New(eng, DefaultConfig(), []Domain{{Name: "row", Servers: c.Row(0), BudgetW: 200}})
	if err != nil {
		t.Fatal(err)
	}
	cp.Start()
	eng.RunUntil(sim.Time(sim.Second))
	for _, sv := range c.Servers {
		if sv.Speed() != 0.1 {
			t.Errorf("server %d speed %v, want floor 0.1", sv.ID, sv.Speed())
		}
	}
}

func TestRowDomains(t *testing.T) {
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 3, 1, 2
	sp.NoiseSigmaW = 0
	c, err := cluster.New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := RowDomains(c, []float64{1000, 0, 2000})
	if len(ds) != 2 {
		t.Fatalf("got %d domains, want 2 (row 1 uncontrolled)", len(ds))
	}
	if ds[0].Name != "row/0" || ds[1].Name != "row/2" {
		t.Errorf("domain names %q, %q", ds[0].Name, ds[1].Name)
	}
	if len(ds[0].Servers) != 2 {
		t.Errorf("domain has %d servers", len(ds[0].Servers))
	}
}

func TestStartStopIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 1)
	cp, err := New(eng, DefaultConfig(), []Domain{{Name: "row", Servers: c.Row(0), BudgetW: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	cp.Start()
	cp.Start()
	eng.RunUntil(sim.Time(2 * sim.Second))
	if got := cp.Stats(0).Intervals; got != 3 {
		t.Errorf("intervals = %d, want 3 (double Start must not double-tick)", got)
	}
	cp.Stop()
	cp.Stop()
	eng.RunUntil(sim.Time(4 * sim.Second))
	if got := cp.Stats(0).Intervals; got != 3 {
		t.Error("capper ticked after Stop")
	}
}

func TestPerServerStaticMode(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 2)
	sp := c.Spec
	// Server 0 hot (full), server 1 idle. Budget = 1.8×rated: proportional
	// capping would not throttle at all (total demand 250+150=400 < 450),
	// but static fair-share caps server 0 at 225 W anyway.
	c.Server(0).Allocate(sp.Containers, float64(sp.Containers))
	cfg := DefaultConfig()
	cfg.Mode = PerServerStatic
	cp, err := New(eng, cfg, []Domain{{Name: "row", Servers: c.Row(0), BudgetW: 450}})
	if err != nil {
		t.Fatal(err)
	}
	cp.Start()
	eng.RunUntil(sim.Time(2 * sim.Second))
	if !c.Server(0).Capped() {
		t.Error("hot server not capped at its static share")
	}
	if got := c.Server(0).DrawW(); math.Abs(got-225) > 1e-9 {
		t.Errorf("hot server draws %v, want 225 (share)", got)
	}
	if c.Server(1).Capped() {
		t.Error("idle server capped below its share")
	}
	st := cp.Stats(0)
	if st.CappedServerSamples == 0 || st.CappedIntervals == 0 {
		t.Errorf("stats %+v", st)
	}
	// Demand drops under the share: cap removed.
	c.Server(0).Release(sp.Containers/2, float64(sp.Containers)/2)
	eng.RunUntil(sim.Time(4 * sim.Second))
	if c.Server(0).Capped() {
		t.Error("cap kept after demand fell under share")
	}
}

func TestModeString(t *testing.T) {
	if Proportional.String() != "proportional" || PerServerStatic.String() != "per-server-static" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode empty")
	}
}
