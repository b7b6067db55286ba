package experiment

import (
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// quickRuns holds one -quick run per catalogue id, shared by the tests below:
// the run `ampere-exp -quick -exp <id>` makes and results/exp_quick_output.txt
// pins.
var quickRuns sync.Map // id → func() ([]Claim, error)

// requireClaims fails t on every quick claim of experiment id whose name
// starts with prefix, and when no claim does. The shapes live in claims.go;
// these tests only name which of them each paper result rests on.
func requireClaims(t *testing.T, id, prefix string) {
	t.Helper()
	run, _ := quickRuns.LoadOrStore(id, sync.OnceValues(func() ([]Claim, error) {
		e, ok := Lookup(id)
		if !ok {
			return nil, nil
		}
		return e.Run(io.Discard, true, 0, "")
	}))
	claims, err := run.(func() ([]Claim, error))()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range claims {
		if !strings.HasPrefix(c.Name, prefix) {
			continue
		}
		n++
		if !c.Held {
			t.Errorf("%s: claim failed: %s", id, c)
		}
	}
	if n == 0 {
		t.Fatalf("%s checks no quick claim named %q…", id, prefix)
	}
}

func TestFig1UtilizationOrdering(t *testing.T)     { requireClaims(t, "fig1", "") }
func TestFig2WeakCrossRowCorrelation(t *testing.T) { requireClaims(t, "fig2", "") }
func TestFig4FreezeDecay(t *testing.T)             { requireClaims(t, "fig4", "") }
func TestFig5KrCalibration(t *testing.T)           { requireClaims(t, "fig5", "") }
func TestFig7DurationShape(t *testing.T)           { requireClaims(t, "fig7", "") }
func TestFig8DiurnalSwing(t *testing.T)            { requireClaims(t, "fig8", "") }
func TestFig9PowerChangeScales(t *testing.T)       { requireClaims(t, "fig9", "") }

func TestAmpereControlsHeavyLoad(t *testing.T) { requireClaims(t, "table2", "heavy:") }
func TestAmpereIdleOnLightLoad(t *testing.T)   { requireClaims(t, "table2", "light:") }
func TestAmpereThroughputCost(t *testing.T)    { requireClaims(t, "table3", "GTPW") }
func TestTable3QuickSweep(t *testing.T)        { requireClaims(t, "table3", "") }
func TestFig12Shape(t *testing.T)              { requireClaims(t, "fig12", "") }

func TestSelectionAblation(t *testing.T)           { requireClaims(t, "ablations", "selection:") }
func TestRStableAblation(t *testing.T)             { requireClaims(t, "ablations", "rstable:") }
func TestEtPercentileAblation(t *testing.T)        { requireClaims(t, "ablations", "Et percentile:") }
func TestHorizonAblation(t *testing.T)             { requireClaims(t, "ablations", "horizon:") }
func TestCappingAblation(t *testing.T)             { requireClaims(t, "ablations", "capping:") }
func TestFig11CappingInflatesLatency(t *testing.T) { requireClaims(t, "fig11", "") }
func TestFig11ScaleSmoke400(t *testing.T)          { requireClaims(t, "fig11scale", "") }

func TestGridstormQuick(t *testing.T)                     { requireClaims(t, "gridstorm", "") }
func TestOutageScenario(t *testing.T)                     { requireClaims(t, "outage", "") }
func TestChaosStormRegimes(t *testing.T)                  { requireClaims(t, "chaos", "") }
func TestSpreadIncreasesVarianceAndHeadroom(t *testing.T) { requireClaims(t, "spread", "") }
func TestFedScaleSmoke(t *testing.T)                      { requireClaims(t, "scale", "") }

// A fit whose kr is not positive is fig5's result, not its error: the fit is
// kept and the "fitted kr positive" claim fails, so ampere-exp still runs and
// reports every id after fig5.
func TestFig5NonPositiveKrFailsItsClaim(t *testing.T) {
	r := &Fig5Result{
		Samples: []core.ControlSample{{U: 0.1, FU: -0.01}, {U: 0.3, FU: -0.02}, {U: 0.5, FU: -0.04}},
		Bands:   []Fig5Band{{U: 0.1, P50: -0.01, N: 1}, {U: 0.3, P50: -0.02, N: 1}, {U: 0.5, P50: -0.04, N: 1}},
	}
	if err := r.fit(); err != nil {
		t.Fatalf("fit of a negative slope: %v, want a result", err)
	}
	if !(r.Kr < 0) {
		t.Fatalf("Kr = %v, want the negative fitted slope", r.Kr)
	}
	failed := map[string]bool{}
	for _, c := range fig5Claims(DefaultFig5(), r) {
		failed[c.Name] = !c.Held
	}
	if !failed["fitted kr positive"] {
		t.Errorf("claims %v: \"fitted kr positive\" held on kr %v", failed, r.Kr)
	}
	if err := (&Fig5Result{}).fit(); err == nil {
		t.Error("a fit of no samples succeeded")
	}
}
