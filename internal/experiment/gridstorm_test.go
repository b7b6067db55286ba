package experiment

import (
	"bytes"
	"testing"
)

// TestGridstormQuick pins the experiment's headline claims at the quick
// scale: the identical 20 % dip trips breakers when applied as a cliff and
// trips none when ramp-limited, and in both regimes the controller converges
// under the curtailed envelope (zero sustained violations).
func TestGridstormQuick(t *testing.T) {
	cfg := QuickGridstorm()
	runs, err := RunGridstorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Regime != "cliff" || runs[1].Regime != "ramp" {
		t.Fatalf("unexpected regimes in %+v", runs)
	}
	cliff, ramp := runs[0], runs[1]
	t.Logf("cliff: %+v", cliff)
	t.Logf("ramp:  %+v", ramp)
	if cliff.Trips == 0 {
		t.Error("cliff regime tripped no breakers — the dip is not stressing the trip curve")
	}
	if ramp.Trips != 0 {
		t.Errorf("ramp regime tripped %d breakers (%v), want ride-through with 0", ramp.Trips, ramp.TrippedRows)
	}
	for _, r := range []GridstormRun{cliff, ramp} {
		if r.SustainedViolations != 0 {
			t.Errorf("%s: %d sustained violations after the settle window, want 0", r.Regime, r.SustainedViolations)
		}
		if r.Dips != 1 {
			t.Errorf("%s: injector recorded %d dips, want exactly 1", r.Regime, r.Dips)
		}
		if r.RampViolations == 0 {
			t.Errorf("%s: no violations during the transition window — the dip is not binding", r.Regime)
		}
		if r.FrozenPeak == 0 {
			t.Errorf("%s: controller froze nothing while riding a 20%% dip", r.Regime)
		}
		if r.RecoveryMinutes < 0 {
			t.Errorf("%s: fleet never recovered (frozen servers remain at end)", r.Regime)
		}
	}
	// The ramp regime's budget moves in RampFrac steps, so it must announce
	// strictly more budget changes than the cliff's two per row.
	if ramp.BudgetChanges <= cliff.BudgetChanges {
		t.Errorf("ramp announced %d budget changes, cliff %d — ramp should take more steps",
			ramp.BudgetChanges, cliff.BudgetChanges)
	}
}

// TestGridstormByteIdentity is the DESIGN.md §7 check for the new
// experiment: the formatted report is byte-identical at GOMAXPROCS 1 and 4.
func TestGridstormByteIdentity(t *testing.T) {
	cfg := QuickGridstorm()
	serial, fanned := atOneAndFour(func() []byte {
		runs, err := RunGridstorm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		FormatGridstorm(&buf, cfg, runs)
		return buf.Bytes()
	})
	if !bytes.Equal(serial, fanned) {
		t.Errorf("gridstorm output differs across worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, fanned)
	}
}

// TestGridstormRideThrough is the ride-through property over several seeds:
// the ramped posture never trips a breaker the cliff posture doesn't, and
// never trips at all.
func TestGridstormRideThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed property run")
	}
	for _, seed := range []uint64{3, 71, 2026} {
		cfg := QuickGridstorm()
		cfg.Seed = seed
		runs, err := RunGridstorm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cliff, ramp := runs[0], runs[1]
		if ramp.Trips != 0 {
			t.Errorf("seed %d: ramp tripped rows %v, want none", seed, ramp.TrippedRows)
		}
		inCliff := map[int]bool{}
		for _, r := range cliff.TrippedRows {
			inCliff[r] = true
		}
		for _, r := range ramp.TrippedRows {
			if !inCliff[r] {
				t.Errorf("seed %d: ramp tripped row %d that cliff did not", seed, r)
			}
		}
	}
}
