package experiment

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// quickAmpere returns a scaled-down AmpereRunConfig for fast tests. The
// pretrain and measure spans stay at full days: shorter windows would
// oversample one side of the diurnal cycle and shift the mean demand.
func quickAmpere(seed uint64, frac, ro float64, scaleBoth bool, amp float64) AmpereRunConfig {
	return AmpereRunConfig{
		Controlled: ControlledConfig{
			Seed:             seed,
			RowServers:       160,
			RestRows:         1,
			TargetPowerFrac:  frac,
			RO:               ro,
			ScaleCtrlBudget:  scaleBoth,
			DiurnalAmplitude: amp,
		},
		Day: Day{Warmup: sim.Hour, Pretrain: 24 * sim.Hour, Measure: 24 * sim.Hour},
	}
}

func TestAmpereControlsHeavyLoad(t *testing.T) {
	// The Table 2 heavy scenario in miniature: without control the group
	// violates often; with Ampere violations collapse.
	run, err := RunAmpere(quickAmpere(21, 0.772, 0.25, true, 0.35))
	if err != nil {
		t.Fatal(err)
	}
	st := run.Analyze("heavy")
	t.Logf("heavy: exp u mean/max %.3f/%.3f  Pmean exp/ctrl %.3f/%.3f  Pmax exp/ctrl %.3f/%.3f  violations exp/ctrl %d/%d  (n=%d)",
		st.UMean, st.UMax, st.PMeanExp, st.PMeanCtrl, st.PMaxExp, st.PMaxCtrl,
		st.ViolationsExp, st.ViolationsCtl, st.Samples)
	if st.ViolationsCtl == 0 {
		t.Error("heavy control group shows no violations; workload too light to test control")
	}
	if st.ViolationsExp*10 > st.ViolationsCtl {
		t.Errorf("Ampere violations %d not ≪ uncontrolled %d", st.ViolationsExp, st.ViolationsCtl)
	}
	if st.UMean <= 0 {
		t.Error("controller never froze anything under heavy load")
	}
	if st.PMaxExp >= st.PMaxCtrl {
		t.Errorf("controlled peak %.3f not below uncontrolled %.3f", st.PMaxExp, st.PMaxCtrl)
	}
}

func TestAmpereIdleOnLightLoad(t *testing.T) {
	// Table 2 light: both groups stay under budget and the controller
	// rarely acts.
	run, err := RunAmpere(quickAmpere(22, 0.65, 0.25, true, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	st := run.Analyze("light")
	t.Logf("light: u mean/max %.3f/%.3f  Pmean %.3f violations %d/%d",
		st.UMean, st.UMax, st.PMeanExp, st.ViolationsExp, st.ViolationsCtl)
	if st.ViolationsExp != 0 {
		t.Errorf("violations under light load: %d", st.ViolationsExp)
	}
	if st.UMean > 0.05 {
		t.Errorf("controller too active on a light day: umean %.3f", st.UMean)
	}
}

func TestAmpereThroughputCost(t *testing.T) {
	// §4.4: under moderate load the throughput ratio stays near 1 — the
	// capacity cost of control is small, which is what makes GTPW positive.
	run, err := RunAmpere(quickAmpere(23, 0.70, 0.17, false, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	rT := run.ThroughputRatio()
	st := run.Analyze("ro17")
	t.Logf("ro=0.17 moderate: rT %.3f umean %.3f GTPW %.3f", rT, st.UMean, rT*1.17-1)
	if rT < 0.9 || rT > 1.1 {
		t.Errorf("throughput ratio %.3f, want ≈1 under moderate load", rT)
	}
	if gtpw := rT*1.17 - 1; gtpw < 0.05 {
		t.Errorf("GTPW %.3f, want clearly positive", gtpw)
	}
}

func TestFig12Shape(t *testing.T) {
	cfg := Fig12Config{Seed: 12, RowServers: 160, RO: 0.25,
		Day: Day{Warmup: sim.Hour, Pretrain: 8 * sim.Hour, Measure: 4 * sim.Hour}}
	res, err := RunFig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fig12: rT overall %.3f highload %.3f GTPW %.3f threshold %.3f (%d windows)",
		res.RTOverall, res.RTHighLoad, res.GTPW, res.Threshold, len(res.ThruRatio))
	if len(res.ExpNorm) == 0 || len(res.ThruRatio) == 0 {
		t.Fatal("empty series")
	}
	if res.Threshold <= 0.8 || res.Threshold >= 1 {
		t.Errorf("threshold %.3f implausible", res.Threshold)
	}
	if res.RTOverall <= 0 {
		t.Fatal("no throughput")
	}
	// The experiment group's power must respect its budget while the
	// control group (normalized to the same scaled budget) exceeds it.
	maxExp, maxCtl := 0.0, 0.0
	for i := range res.ExpNorm {
		if res.ExpNorm[i] > maxExp {
			maxExp = res.ExpNorm[i]
		}
		if res.CtrlNorm[i] > maxCtl {
			maxCtl = res.CtrlNorm[i]
		}
	}
	t.Logf("fig12: max exp %.3f max ctrl %.3f", maxExp, maxCtl)
	if maxCtl <= 1.0 {
		t.Error("control group never exceeded the scaled budget; no high-load box")
	}
	if maxExp >= maxCtl {
		t.Error("Ampere did not hold the experiment group below the uncontrolled trajectory")
	}
}

func TestTable3QuickSweep(t *testing.T) {
	cfg := Table3Config{
		Seed:       33,
		RowServers: 160,
		Day:        Day{Warmup: sim.Hour, Pretrain: 6 * sim.Hour, Measure: 6 * sim.Hour},
		Scenarios: []Table3Scenario{
			{RO: 0.25, TargetFrac: 0.74, Amplitude: 0.5},
			{RO: 0.17, TargetFrac: 0.72, Amplitude: 0.4},
			{RO: 0.13, TargetFrac: 0.70, Amplitude: 0.3},
		},
	}
	res, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		t.Logf("table3: ro %.2f Pmean %.3f Pmax %.3f umean %.3f rT %.3f GTPW %+.3f viol %d",
			r.RO, r.PMean, r.PMax, r.UMean, r.RThru, r.GTPW, r.Violations)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r.RThru <= 0 || r.RThru > 1.15 {
			t.Errorf("row %d: rT %.3f implausible", i, r.RThru)
		}
		// GTPW is upper-bounded by rO (up to the ≈2 % statistical noise in
		// the group throughput ratio, which can push rT slightly above 1).
		if r.GTPW > r.RO+0.03 {
			t.Errorf("row %d: GTPW %.3f exceeds rO %.3f beyond noise", i, r.GTPW, r.RO)
		}
	}
	// The lighter scenarios keep rT ≈ 1, so GTPW ≈ rO (the paper's
	// "with a given rO, GTPW is bounded by rO and reached when rT = 1").
	last := res.Rows[2]
	if last.GTPW < last.RO-0.05 {
		t.Errorf("light scenario GTPW %.3f far below its bound %.3f", last.GTPW, last.RO)
	}
}

// Ampere must stay effective when the monitor loses sweeps: stale samples
// shift control by a minute, which RHC absorbs. We rebuild the heavy
// scenario with 10% sweep drops injected at the rig level.
func TestAmpereSurvivesLossyMonitor(t *testing.T) {
	cfg := quickAmpere(21, 0.772, 0.25, true, 0.35)
	cfg.Controlled.MonitorDropRate = 0.10
	run, err := RunAmpere(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := run.Analyze("lossy")
	t.Logf("lossy monitor: violations %d/%d umean %.3f", st.ViolationsExp, st.ViolationsCtl, st.UMean)
	if st.ViolationsCtl == 0 {
		t.Fatal("scenario too light")
	}
	if st.ViolationsExp*5 > st.ViolationsCtl {
		t.Errorf("control collapsed under 10%% monitor drops: %d vs %d",
			st.ViolationsExp, st.ViolationsCtl)
	}
	if st.UMean <= 0 {
		t.Error("controller never acted")
	}
}

// Ampere on a heterogeneous fleet: ±5% per-server rated/idle variance must
// not degrade control (the controller reads watts, not nominal specs).
func TestAmpereOnJitteredFleet(t *testing.T) {
	cfg := quickAmpere(24, 0.772, 0.25, true, 0.35)
	cfg.Controlled.RatedJitter = 0.05
	run, err := RunAmpere(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := run.Analyze("jittered")
	t.Logf("jittered fleet: violations %d/%d umean %.3f Pmean %.3f",
		st.ViolationsExp, st.ViolationsCtl, st.UMean, st.PMeanExp)
	if st.ViolationsCtl == 0 {
		t.Fatal("scenario too light")
	}
	if st.ViolationsExp*5 > st.ViolationsCtl {
		t.Errorf("control degraded on jittered fleet: %d vs %d",
			st.ViolationsExp, st.ViolationsCtl)
	}
}

func smallControlled(t *testing.T) *Controlled {
	t.Helper()
	ctrl, err := NewControlled(ControlledConfig{Seed: 5, RowServers: 40, RestRows: 1, TargetPowerFrac: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestControlledRunRejectsBadSpans(t *testing.T) {
	for _, d := range []Day{
		{Warmup: sim.Hour, Pretrain: sim.Hour},
		{Warmup: sim.Hour, Pretrain: sim.Hour, Measure: -sim.Minute},
		{Warmup: -sim.Minute, Pretrain: sim.Hour, Measure: sim.Hour},
		{Warmup: sim.Hour, Pretrain: -sim.Minute, Measure: sim.Hour},
	} {
		ctrl := smallControlled(t)
		called := false
		if _, err := ctrl.Run(d, func() error { called = true; return nil }); err == nil {
			t.Errorf("day %+v accepted", d)
		}
		if called || ctrl.Rig.Eng.Now() != 0 {
			t.Errorf("day %+v: rejected after running (protect called %v, now %v)", d, called, ctrl.Rig.Eng.Now())
		}
	}
}

func TestControlledRunProtectsAtPretrainEnd(t *testing.T) {
	d := Day{Warmup: 20 * sim.Minute, Pretrain: 40 * sim.Minute, Measure: 30 * sim.Minute}
	ctrl := smallControlled(t)
	var at sim.Time
	samples := -1
	from, err := ctrl.Run(d, func() error {
		at, samples = ctrl.Rig.Eng.Now(), ctrl.Tracker.Samples()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if at != sim.Time(d.Warmup+d.Pretrain) || at != d.Start() {
		t.Errorf("protect ran at %v, want Warmup+Pretrain = %v", at, d.Start())
	}
	if from != samples || samples <= 0 {
		t.Errorf("measureFrom %d, want the %d samples taken when protect ran", from, samples)
	}
	if now := ctrl.Rig.Eng.Now(); now != d.Start().Add(d.Measure) {
		t.Errorf("day ended at %v, want %v", now, d.Start().Add(d.Measure))
	}

	// A nil protect runs the identical day unprotected.
	bare := smallControlled(t)
	bareFrom, err := bare.Run(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bareFrom != from || bare.Tracker.Samples() != ctrl.Tracker.Samples() {
		t.Errorf("nil protect: measureFrom %d of %d samples, want %d of %d",
			bareFrom, bare.Tracker.Samples(), from, ctrl.Tracker.Samples())
	}
	for _, gi := range []int{GExp, GCtrl} {
		a, b := bare.Tracker.PowerSeries(gi, 0), ctrl.Tracker.PowerSeries(gi, 0)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("group %d sample %d: %v unprotected, %v with a no-op protect", gi, i, a[i], b[i])
			}
		}
	}
}

func TestControlledRunStopsOnProtectError(t *testing.T) {
	d := Day{Warmup: 10 * sim.Minute, Pretrain: 10 * sim.Minute, Measure: 10 * sim.Minute}
	ctrl := smallControlled(t)
	boom := errors.New("boom")
	if _, err := ctrl.Run(d, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the protect error", err)
	}
	if now := ctrl.Rig.Eng.Now(); now != d.Start() {
		t.Errorf("ran on to %v after protect failed, want stop at %v", now, d.Start())
	}
}

func TestDayHourWrapsMidnightToHour24(t *testing.T) {
	for h, want := range map[float64]float64{0.5: 0.5, 15: 15, 24: 24, 24.5: 0.5, 48: 24, 50: 2} {
		if got := dayHour(h); got != want {
			t.Errorf("dayHour(%v) = %v, want %v", h, got, want)
		}
	}
}
