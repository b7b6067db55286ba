package experiment

import (
	"testing"

	"repro/internal/sim"
)

// quickChaos is the -quick CLI configuration: an 80-server row, 12-hour
// measured window, the full storm.
func quickChaos() ChaosConfig {
	cfg := DefaultChaos()
	cfg.RowServers = 80
	cfg.Pretrain, cfg.Measure = 6*sim.Hour, 12*sim.Hour
	return cfg
}

// TestChaosCrashRecoversSteadyState is the statelessness property: a
// controller crash plus cold restart mid-storm must leave the day's outcome
// where the uninterrupted run leaves it — everything the controller needs
// is reconstructible from the scheduler (frozen set) and the TSDB (power
// history).
func TestChaosCrashRecoversSteadyState(t *testing.T) {
	withCrash := quickChaos()
	noCrash := withCrash
	noCrash.CrashLen = 0

	a, _, err := runChaosOnce(withCrash, false)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runChaosOnce(noCrash, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Restarts != 1 || b.Restarts != 0 {
		t.Fatalf("restarts: with-crash %d (want 1), no-crash %d (want 0)", a.Restarts, b.Restarts)
	}
	if a.Violations > 1 || b.Violations > 1 {
		t.Errorf("violations with/without crash = %d/%d, want both <= 1", a.Violations, b.Violations)
	}
	// Same steady state at the end of the day: the frozen sets must agree
	// to within a couple of servers (the 10-minute gap perturbs placement
	// slightly, but the control law reconverges on the same demand).
	diff := a.FrozenEnd - b.FrozenEnd
	if diff < 0 {
		diff = -diff
	}
	if diff > 2 {
		t.Errorf("end-of-day frozen set diverged: with crash %d, without %d", a.FrozenEnd, b.FrozenEnd)
	}
}
