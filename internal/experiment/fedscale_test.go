package experiment

import (
	"bytes"
	"testing"
)

// TestFedScaleSmoke runs the quick federated scale configuration (4 DCs ×
// 400 servers) end to end and pins the GOMAXPROCS independence of its
// formatted output — the tier-1 gate for the two-level substrate.
func TestFedScaleSmoke(t *testing.T) {
	ref, got := atOneAndFour(func() string {
		res, err := RunFedScale(quickConfig[scaleConfig]("scale").fed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Servers != 4*400 {
			t.Fatalf("servers %d, want 1600", res.Servers)
		}
		if res.Epochs != 40 {
			t.Fatalf("epochs %d, want 40", res.Epochs)
		}
		for _, r := range res.Rows {
			if r.Placed <= 0 || r.Completed <= 0 {
				t.Fatalf("DC %s placed %d / completed %d, want both >0", r.DC, r.Placed, r.Completed)
			}
			if r.MeanUtil <= 0 || r.MeanUtil > 1 {
				t.Fatalf("DC %s mean util %v outside (0,1]", r.DC, r.MeanUtil)
			}
			if r.AllocRatio < 0.6 || r.AllocRatio > 1.5 {
				t.Fatalf("DC %s alloc/base %v outside the coordinator's [0.6,1.5] clamp", r.DC, r.AllocRatio)
			}
		}
		var buf bytes.Buffer
		FormatFedScale(&buf, res)
		return buf.String()
	})
	if got != ref {
		t.Errorf("output diverges at GOMAXPROCS 4:\nserial:\n%s\nparallel:\n%s", ref, got)
	}
}
