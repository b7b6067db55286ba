package breaker

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func newServers(t *testing.T, n int) []*cluster.Server {
	t.Helper()
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 1, 1, n
	sp.NoiseSigmaW = 0
	c, err := cluster.New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c.Servers
}

func loadAll(servers []*cluster.Server, containers int) {
	for _, sv := range servers {
		sv.Allocate(containers, float64(containers))
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 2)
	b, err := New(eng, DefaultConfig(100), servers)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0, -100, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(eng, DefaultConfig(w), servers); err == nil {
			t.Errorf("budget %v accepted by New", w)
		}
		if err := b.SetBudget(w); err == nil {
			t.Errorf("budget %v accepted by SetBudget", w)
		}
	}
	if b.Budget() != 100 {
		t.Errorf("rejected budgets moved the limit to %v", b.Budget())
	}
	if _, err := New(eng, DefaultConfig(100), nil); err == nil {
		t.Error("no servers accepted")
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Interval = 0 },
		func(c *Config) { c.Interval = -sim.Second },
		func(c *Config) { c.TripOverloadSeconds = 0 },
		func(c *Config) { c.TripOverloadSeconds = math.NaN() },
	} {
		cfg := DefaultConfig(100)
		mutate(&cfg)
		if _, err := New(eng, cfg, servers); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestSustainedOverloadTrips(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 4)
	loadAll(servers, 16) // 4×250 W = 1000 W
	budget := 950.0      // ≈5.3 % overload
	b, err := New(eng, DefaultConfig(budget), servers)
	if err != nil {
		t.Fatal(err)
	}
	var trippedAt sim.Time
	b.OnTrip(func(now sim.Time) { trippedAt = now })
	b.Start()
	if err := eng.RunUntil(sim.Time(20 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	tripped, at := b.Tripped()
	if !tripped {
		t.Fatal("sustained 5% overload did not trip")
	}
	// 30 overload-seconds at 5.26 % ≈ 9.5 min.
	mins := sim.Duration(at).Minutes()
	if mins < 7 || mins > 12 {
		t.Errorf("tripped after %.1f min, want ≈9.5", mins)
	}
	if trippedAt != at {
		t.Error("callback time mismatch")
	}
}

func TestDeepOverloadTripsFaster(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 4)
	loadAll(servers, 16)
	b, err := New(eng, DefaultConfig(800), servers) // 25 % overload
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	if err := eng.RunUntil(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	tripped, at := b.Tripped()
	if !tripped {
		t.Fatal("25% overload did not trip")
	}
	if m := sim.Duration(at).Minutes(); m > 2.5 {
		t.Errorf("tripped after %.1f min, want ≈2 (30/0.25 s)", m)
	}
}

func TestInstantTrip(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 4)
	loadAll(servers, 16)
	b, err := New(eng, DefaultConfig(600), servers) // 67 % overload > instant 50 %
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	eng.RunUntil(sim.Time(2 * sim.Second))
	if tripped, at := b.Tripped(); !tripped || at > sim.Time(sim.Second) {
		t.Errorf("instant trip failed: %v at %v", tripped, at)
	}
}

func TestUnderBudgetNeverTrips(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 4)
	loadAll(servers, 8) // 4×200 W
	b, err := New(eng, DefaultConfig(900), servers)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	if err := eng.RunUntil(sim.Time(sim.Hour)); err != nil {
		t.Fatal(err)
	}
	if tripped, _ := b.Tripped(); tripped {
		t.Error("tripped under budget")
	}
	if b.Heat() != 0 {
		t.Errorf("heat %v under budget", b.Heat())
	}
}

func TestCooldownForgivesBriefOverload(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 4)
	sp := servers[0].Spec()
	budget := 4 * (sp.IdlePowerW + (sp.RatedPowerW-sp.IdlePowerW)*0.5) // budget at 50 % util draw
	b, err := New(eng, DefaultConfig(budget), servers)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	// 3 minutes of ~12 % overload (heat ≈ 21 < 30), then back under.
	loadAll(servers, 10)
	eng.RunUntil(sim.Time(3 * sim.Minute))
	if tripped, _ := b.Tripped(); tripped {
		t.Fatal("tripped too early")
	}
	heatAfterOverload := b.Heat()
	if heatAfterOverload <= 0 {
		t.Fatal("no heat accumulated")
	}
	for _, sv := range servers {
		sv.Release(4, 4) // back to 6 containers < 8: under budget
	}
	eng.RunUntil(sim.Time(13 * sim.Minute))
	if b.Heat() >= heatAfterOverload {
		t.Errorf("heat did not decay: %v -> %v", heatAfterOverload, b.Heat())
	}
	if tripped, _ := b.Tripped(); tripped {
		t.Error("tripped after recovery")
	}
}

func TestResetAndStop(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 2)
	loadAll(servers, 16)
	b, err := New(eng, DefaultConfig(100), servers)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	b.OnTrip(func(sim.Time) { fired++ })
	b.Start()
	b.Start()
	eng.RunUntil(sim.Time(5 * sim.Second))
	if tripped, _ := b.Tripped(); !tripped || fired != 1 {
		t.Fatalf("trip state %v fired %d", tripped, fired)
	}
	// Tripped breaker stays tripped and does not re-fire.
	eng.RunUntil(sim.Time(10 * sim.Second))
	if fired != 1 {
		t.Errorf("callback fired %d times", fired)
	}
	b.Reset()
	if tripped, _ := b.Tripped(); tripped || b.Heat() != 0 {
		t.Error("reset did not clear state")
	}
	b.Stop()
	b.Stop()
}

// Property: the breaker's trip decision matches a reference accumulator
// computed independently over the same random load profile.
func TestBreakerMatchesReferenceProperty(t *testing.T) {
	f := func(loads []uint8) bool {
		if len(loads) > 120 {
			loads = loads[:120]
		}
		eng := sim.NewEngine()
		servers := newServers(t, 2)
		cfg := DefaultConfig(700) // 2 servers, max demand 500 W... budget high
		cfg.BudgetW = 420         // idle 300 W, rated 500 W: overloads possible
		b, err := New(eng, cfg, servers)
		if err != nil {
			return false
		}
		b.Start()
		// Drive utilization changes once per second, mirroring the breaker
		// interval; the reference accumulator replays the same draw.
		heat := 0.0
		refTripped := false
		for i, raw := range loads {
			n := int(raw) % 17 // containers on server 0
			sv := servers[0]
			// Reset allocation to n containers.
			sv.Release(sv.Busy(), float64(sv.Busy()))
			sv.Allocate(n, float64(n))
			draw := servers[0].DrawW() + servers[1].DrawW()
			// Advance one breaker interval.
			if err := eng.RunUntil(sim.Time(i+1) * sim.Time(sim.Second)); err != nil {
				return false
			}
			if !refTripped {
				overload := draw/cfg.BudgetW - 1
				switch {
				case overload >= 0.5: // the magnetic trip at 1.5× budget
					refTripped = true
				case overload > 0:
					heat += overload
					if heat >= cfg.TripOverloadSeconds {
						refTripped = true
					}
				default:
					heat -= cfg.TripOverloadSeconds / 600 // a full reset in 10 min
					if heat < 0 {
						heat = 0
					}
				}
			}
			tripped, _ := b.Tripped()
			if tripped != refTripped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
