package experiment

import (
	"strings"
	"testing"
)

func TestSelectionAblation(t *testing.T) {
	sweep := ablationSweeps[0]
	rows, err := RunAblation(quickConfig[AmpereRunConfig]("ablations"), sweep.variants)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	FormatAblation(&sb, sweep.title, rows)
	t.Log("\n" + sb.String())
	if len(rows) != 3 {
		t.Fatalf("got %d variants", len(rows))
	}
	hottest, coldest := rows[0], rows[1]
	if hottest.Variant != "hottest" || coldest.Variant != "coldest" {
		t.Fatalf("unexpected variant order: %v", rows)
	}
	// All variants should keep control effective (violations well under the
	// uncontrolled count of many hundreds); the interesting signal is the
	// throughput/ratio tradeoff, which is workload-noise sensitive, so we
	// assert only the safety property.
	for _, r := range rows {
		if r.Violations > 120 {
			t.Errorf("%s: %d violations, control ineffective", r.Variant, r.Violations)
		}
	}
}

func TestRStableAblation(t *testing.T) {
	sweep := ablationSweeps[1] // rstable 0.5, 0.8, 0.95
	rows, err := RunAblation(quickConfig[AmpereRunConfig]("ablations"), sweep.variants)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	FormatAblation(&sb, sweep.title, rows)
	t.Log("\n" + sb.String())
	// The paper: performance is insensitive to rstable. Violations should
	// be in the same band across the sweep.
	lo, hi := rows[0].Violations, rows[0].Violations
	for _, r := range rows {
		if r.Violations < lo {
			lo = r.Violations
		}
		if r.Violations > hi {
			hi = r.Violations
		}
	}
	if hi-lo > 60 {
		t.Errorf("violations vary too much across rstable: %d..%d", lo, hi)
	}
}

func TestEtPercentileAblation(t *testing.T) {
	sweep := ablationSweeps[2]
	p50, p995 := sweep.variants[0], sweep.variants[2]
	rows, err := RunAblation(quickConfig[AmpereRunConfig]("ablations"), []AblationVariant{p50, p995})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	FormatAblation(&sb, sweep.title, rows)
	t.Log("\n" + sb.String())
	// A thin margin (p50) must not freeze more than the conservative one.
	if rows[0].UMean > rows[1].UMean+1e-9 {
		t.Errorf("p50 margin froze more (%.3f) than p99.5 (%.3f)", rows[0].UMean, rows[1].UMean)
	}
}

func TestHorizonAblation(t *testing.T) {
	sweep := ablationSweeps[3]
	rows, err := RunAblation(quickConfig[AmpereRunConfig]("ablations"), sweep.variants[:2]) // horizons 1 and 5
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	FormatAblation(&sb, sweep.title, rows)
	t.Log("\n" + sb.String())
	// Lemma 3.1: under normal demand both horizons behave alike.
	d := rows[0].Violations - rows[1].Violations
	if d < -60 || d > 60 {
		t.Errorf("horizon changes violations drastically: %+v", rows)
	}
}

func TestCappingAblation(t *testing.T) {
	rows, err := RunCappingAblation(quickConfig[AmpereRunConfig]("ablations"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	FormatCappingAblation(&sb, rows)
	t.Log("\n" + sb.String())
	byName := map[string]CappingAblationRow{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	prop := byName["capping-proportional"]
	static := byName["capping-static"]
	amp := byName["ampere"]

	// Both capping modes clamp the true draw; proportional rides exactly at
	// the budget line so noisy measurements read "violation" often, but the
	// peak stays within the measurement noise band.
	if prop.PMax > 1.02 || static.PMax > 1.02 {
		t.Errorf("capping did not clamp: Pmax %.3f / %.3f", prop.PMax, static.PMax)
	}
	// Both capping modes slow jobs down; Ampere does not (stretch ≈ 1).
	if prop.StretchP99 < 1.05 {
		t.Errorf("proportional capping shows no job slowdown: p99 stretch %.3f", prop.StretchP99)
	}
	if static.StretchP99 < 1.05 {
		t.Errorf("static capping shows no job slowdown: p99 stretch %.3f", static.StretchP99)
	}
	if amp.StretchP99 > 1.01 {
		t.Errorf("Ampere slowed jobs: p99 stretch %.3f", amp.StretchP99)
	}
	// Static fair-share throttles even with row headroom available: it caps
	// servers while the proportional mode would not need to act at all on
	// the same instants, so it must show capped server-time whenever the
	// coordinated mode does.
	if static.CappedFrac == 0 && prop.CappedFrac > 0 {
		t.Error("static mode never capped while proportional did")
	}
}
