package experiment

import (
	"testing"

	"repro/internal/sim"
)

func TestFig11Validation(t *testing.T) {
	cfg := DefaultFig11()
	cfg.ServiceServers = 0
	if _, err := RunFig11(cfg); err == nil {
		t.Error("zero service servers accepted")
	}
	cfg = DefaultFig11()
	cfg.ServiceServers = cfg.RowServers + 1
	if _, err := RunFig11(cfg); err == nil {
		t.Error("more service servers than row accepted")
	}
}

func TestFig11CappingInflatesLatency(t *testing.T) {
	cfg := Fig11Config{
		Seed:              11,
		RowServers:        80,
		ServiceServers:    16,
		ServiceContainers: 8,
		RO:                0.25,
		BatchTargetFrac:   0.75,
		RequestsPerSecond: 60,
		Day:               Day{Warmup: sim.Hour, Pretrain: 8 * sim.Hour, Measure: 60 * sim.Minute},
	}
	res, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fig11: capped server-intervals: capping %.3f vs ampere %.3f",
		res.CappedServerFracCapping, res.CappedServerFracAmpere)
	worst, count2x := 0.0, 0
	for _, r := range res.Rows {
		t.Logf("  %-11s p999 capping %8.0fµs  ampere %8.0fµs  inflation %.2f×",
			r.Op, r.P999CappingUS, r.P999AmpereUS, r.Inflation)
		if r.Inflation > worst {
			worst = r.Inflation
		}
		if r.Inflation >= 1.5 {
			count2x++
		}
	}
	if len(res.Rows) != 6 {
		t.Fatalf("got %d ops", len(res.Rows))
	}
	// The paper's headline: capping roughly doubles the p99.9 across the
	// benchmark while Ampere leaves it near baseline. Require a clear
	// majority of operations to show substantial inflation.
	if count2x < 4 {
		t.Errorf("only %d/6 ops show ≥1.5× inflation under capping (worst %.2f×)", count2x, worst)
	}
	// Ampere nearly eliminates capping activity.
	if res.CappedServerFracAmpere >= res.CappedServerFracCapping/2 {
		t.Errorf("Ampere capped fraction %.3f not well below capping-only %.3f",
			res.CappedServerFracAmpere, res.CappedServerFracCapping)
	}
}
