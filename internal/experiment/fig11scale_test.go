package experiment

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

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
