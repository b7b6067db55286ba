package experiment

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestFig11ScaleSmoke400 pins the scaled experiment's headline at the quick
// scale: on budget-pressed service rows, capping inflates the aggregate
// request tail that Ampere's freeze-and-displace protects, and the SLO-miss
// accounting is live in the result.
func TestFig11ScaleSmoke400(t *testing.T) {
	cfg := quickConfig[Fig11ScaleConfig]("fig11scale")
	cfg.Parallel = 2
	res, err := RunFig11Scale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	FormatFig11Scale(&buf, cfg, res)
	t.Logf("\n%s", buf.String())
	if len(res.Ops) == 0 || len(res.Classes) != 3 {
		t.Fatalf("result shape: %d ops, %d classes (want >0 ops, 3 classes)", len(res.Ops), len(res.Classes))
	}
	if res.ServedCapping == 0 || res.ServedAmpere == 0 {
		t.Fatalf("served %d/%d requests — traffic never reached the instances",
			res.ServedCapping, res.ServedAmpere)
	}
	if res.AggInflation <= 1 {
		t.Errorf("aggregate p999 inflation %.2f (capping %.0fµs vs ampere %.0fµs), want capping worse",
			res.AggInflation, res.AggP999CappingUS, res.AggP999AmpereUS)
	}
	if res.SLOMissCapping <= res.SLOMissAmpere {
		t.Errorf("SLO miss: capping %.4f ≤ ampere %.4f, want capping worse",
			res.SLOMissCapping, res.SLOMissAmpere)
	}
	if res.CappedServerFracCapping == 0 {
		t.Error("capping regime capped nothing — the hot rows are not budget-pressed")
	}
	if res.FrozenServerMinutes == 0 {
		t.Error("ampere regime froze nothing — the controller is not riding the budget")
	}
	for _, want := range []string{"miss-cap%", "miss-amp%", "aggregate p999", "frozen server-minutes"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("formatted output missing %q", want)
		}
	}
}

// TestFig11ScaleByteIdentity is the DESIGN.md §7 check: the formatted report
// is byte-identical at GOMAXPROCS 1 and 4, which fans the two regimes out
// (runs under -race via race-shuffle).
func TestFig11ScaleByteIdentity(t *testing.T) {
	serial, fanned := atOneAndFour(func() string {
		cfg := quickConfig[Fig11ScaleConfig]("fig11scale")
		res, err := RunFig11Scale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		FormatFig11Scale(&buf, cfg, res)
		return buf.String()
	})
	if serial != fanned {
		t.Errorf("fig11scale output differs across worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, fanned)
	}
}

func TestFig11ScaleConfigValidation(t *testing.T) {
	cases := []func(*Fig11ScaleConfig){
		func(c *Fig11ScaleConfig) { c.ServiceRows = 0 },
		func(c *Fig11ScaleConfig) { c.ServiceRows = c.Rows }, // no absorbers
		func(c *Fig11ScaleConfig) { c.ServicePerRow = 0 },
		func(c *Fig11ScaleConfig) { c.ServicePerRow = c.RowServers + 1 },
		func(c *Fig11ScaleConfig) { c.ServiceUsers = 0 },
		func(c *Fig11ScaleConfig) { c.RPSPerUser = 0 },
		func(c *Fig11ScaleConfig) { c.BudgetFrac = 0 },
		func(c *Fig11ScaleConfig) { c.BudgetFrac = 1.5 },
		func(c *Fig11ScaleConfig) { c.OpScale = 0 },
		func(c *Fig11ScaleConfig) { c.Warmup = -sim.Minute },
		func(c *Fig11ScaleConfig) { c.Measure = 0 },
	}
	for i, mut := range cases {
		cfg := quickConfig[Fig11ScaleConfig]("fig11scale")
		mut(&cfg)
		if _, err := RunFig11Scale(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
