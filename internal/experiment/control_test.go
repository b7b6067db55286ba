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
