package experiment

import (
	"testing"

	"repro/internal/sim"
)

// TestOutagePeakAtMidnight places the demand peak on 00:00 — 2 h into a
// measured window that opens at 22:00 — and requires the uncontrolled row to
// meet it. Hour 0 must not be read as "no peak hour given", which would move
// the peak to the default 14:00, into the trough of the measured window.
func TestOutagePeakAtMidnight(t *testing.T) {
	cfg := DefaultOutage()
	cfg.RowServers = 120
	cfg.Warmup, cfg.Pretrain, cfg.Measure = sim.Hour, 21*sim.Hour, 4*sim.Hour
	o, err := runOutageOnce(cfg, "none")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("peak 00:00: Pmax %.3f, tripped %v", o.PMax, o.Tripped)
	if o.PMax <= 1 {
		t.Errorf("uncontrolled Pmax %.3f over the peak, want above the budget", o.PMax)
	}
}
