package experiment

import (
	"bytes"
	"testing"
)

// TestRunWhatifDeterministic pins the -exp whatif acceptance: the demo's
// rendered output is byte-identical across runs, and the headline result
// holds — the ramped-budget counterfactual avoids every cliff-regime trip
// from a byte-verified mid-storm snapshot.
func TestRunWhatifDeterministic(t *testing.T) {
	cfg := quickConfig[TournamentConfig]("whatif")
	var outs [2]bytes.Buffer
	for i := range outs {
		res, err := RunTournament(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !res.BaselineIdentical {
			t.Fatalf("run %d: self-replay diverged", i)
		}
		rep := rampRow(res).Report
		if rep.Factual.Trips == 0 {
			t.Fatalf("run %d: cliff regime tripped no breakers", i)
		}
		if rep.TripsAvoided != rep.Factual.Trips {
			t.Fatalf("run %d: ramped counterfactual avoided %d of %d trips",
				i, rep.TripsAvoided, rep.Factual.Trips)
		}
		FormatWhatif(&outs[i], res)
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("whatif demo output not deterministic:\n--- run 0 ---\n%s--- run 1 ---\n%s",
			outs[0].String(), outs[1].String())
	}
}
