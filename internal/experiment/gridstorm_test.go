package experiment

import (
	"bytes"
	"testing"
)

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
