package experiment

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestOutageScenario(t *testing.T) {
	cfg := OutageConfig{
		Seed: 55, RowServers: 120, RO: 0.25, TargetFrac: 0.79,
		Day:         Day{Warmup: sim.Hour, Pretrain: 8 * sim.Hour, Measure: 8 * sim.Hour},
		RepairAfter: 30 * sim.Minute,
	}
	rows, err := RunOutage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	FormatOutage(&sb, rows)
	t.Log("\n" + sb.String())

	byName := map[string]OutageOutcome{}
	for _, r := range rows {
		byName[r.Regime] = r
	}
	none, capp, amp := byName["none"], byName["capping"], byName["ampere"]

	// Uncontrolled over-budget demand must trip the breaker and destroy
	// jobs.
	if !none.Tripped {
		t.Fatal("uncontrolled regime did not trip — demand too light for the scenario")
	}
	if none.JobsKilled == 0 {
		t.Error("trip killed no jobs")
	}
	// Both protections prevent the outage.
	if capp.Tripped {
		t.Error("capping regime tripped")
	}
	if amp.Tripped {
		t.Error("ampere regime tripped")
	}
	if capp.JobsKilled != 0 || amp.JobsKilled != 0 {
		t.Errorf("protected regimes killed jobs: %d / %d", capp.JobsKilled, amp.JobsKilled)
	}
	// The outage costs real throughput relative to either protection.
	if none.Throughput >= amp.Throughput {
		t.Errorf("outage throughput %d not below ampere %d", none.Throughput, amp.Throughput)
	}
}

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
