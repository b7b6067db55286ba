package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/sim"
)

func TestFitKr(t *testing.T) {
	// Synthetic Fig-5 data: f(u) = 0.12·u with noise.
	r := sim.NewRNG(1)
	var samples []ControlSample
	for i := 0; i < 500; i++ {
		u := r.Float64() * 0.6
		fu := 0.12*u + r.NormFloat64()*0.01
		samples = append(samples, ControlSample{U: u, FU: fu})
	}
	fit, err := FitKr(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.12) > 0.01 {
		t.Errorf("kr = %v, want ≈0.12", fit.Slope)
	}
}

func TestGTPW(t *testing.T) {
	// The paper's worked examples (§4.4).
	if got := GTPW(0.9, 0.25); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("GTPW(0.9, 0.25) = %v, want 0.125", got)
	}
	if got := GTPW(1.0, 0.17); math.Abs(got-0.17) > 1e-12 {
		t.Errorf("GTPW(1, 0.17) = %v, want 0.17", got)
	}
	if got := GTPW(0.8, 0.25); math.Abs(got-0.0) > 1e-12 {
		t.Errorf("GTPW(0.8, 0.25) = %v, want 0", got)
	}
}

func TestFitKrErrors(t *testing.T) {
	if _, err := FitKr(nil); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := FitKr([]ControlSample{{U: 0.1, FU: 0.01}}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := FitKr([]ControlSample{{U: -0.1, FU: 0}, {U: 0.5, FU: 0.1}}); err == nil {
		t.Error("out-of-range u accepted")
	}
	// Freezing that increases power must be rejected (negative slope).
	// The fit comes back with the error: it is still what was measured.
	neg := []ControlSample{{U: 0.1, FU: -0.05}, {U: 0.5, FU: -0.2}, {U: 0.3, FU: -0.1}}
	if fit, err := FitKr(neg); !errors.Is(err, ErrKrNotPositive) || !(fit.Slope < 0) {
		t.Errorf("negative kr: fit %+v, error %v; want the fit and ErrKrNotPositive", fit, err)
	}
	if _, err := FitKr(nil); errors.Is(err, ErrKrNotPositive) {
		t.Error("no fit at all reported as a non-positive kr")
	}
}

func TestConstantEt(t *testing.T) {
	e := ConstantEt(0.03)
	if e.Estimate(0) != 0.03 || e.Estimate(sim.Time(17*sim.Hour)) != 0.03 {
		t.Error("ConstantEt not constant")
	}
}

func TestHourlyEtValidation(t *testing.T) {
	if _, err := NewHourlyEt(0, 0.05, 1); err == nil {
		t.Error("percentile 0 accepted")
	}
	if _, err := NewHourlyEt(101, 0.05, 1); err == nil {
		t.Error("percentile 101 accepted")
	}
	if _, err := NewHourlyEt(99.5, -1, 1); err == nil {
		t.Error("negative default accepted")
	}
}

func TestHourlyEtDefaultUntilTrained(t *testing.T) {
	h, err := NewHourlyEt(99.5, 0.07, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Estimate(0); got != 0.07 {
		t.Errorf("untrained estimate %v, want default 0.07", got)
	}
	for i := 0; i < 9; i++ {
		h.Add(0, 0.01)
	}
	if got := h.Estimate(0); got != 0.07 {
		t.Errorf("below minSamples estimate %v, want default", got)
	}
	h.Add(0, 0.01)
	if got := h.Estimate(0); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("trained estimate %v, want 0.01", got)
	}
}

func TestHourlyEtPercentilePerHour(t *testing.T) {
	h, err := NewHourlyEt(99.5, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Hour 3: 99 % small increases, 1 % large surges; the 99.5th percentile
	// must sit in the surge region, "preparing for almost the largest change
	// in observed history".
	at3 := sim.Time(3 * sim.Hour)
	for i := 0; i < 990; i++ {
		h.Add(at3, 0.005)
	}
	for i := 0; i < 10; i++ {
		h.Add(at3, 0.10)
	}
	got := h.Estimate(at3)
	if got < 0.09 || got > 0.10 {
		t.Errorf("hour-3 estimate %v, want in the surge region ≈0.10", got)
	}
	// Hour 4 is untrained and falls back to the default.
	if e := h.Estimate(sim.Time(4 * sim.Hour)); e != 0.05 {
		t.Errorf("hour-4 estimate %v, want default", e)
	}
	if h.Samples(3) != 1000 || h.Samples(4) != 0 {
		t.Errorf("samples: %d, %d", h.Samples(3), h.Samples(4))
	}
}

func TestHourlyEtNeverNegative(t *testing.T) {
	h, err := NewHourlyEt(50, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Add(0, -0.02) // uniformly decreasing power
	}
	if got := h.Estimate(0); got != 0 {
		t.Errorf("estimate %v, want clamp to 0", got)
	}
}

func TestHourlyEtCacheInvalidation(t *testing.T) {
	h, err := NewHourlyEt(100, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0, 0.01)
	if got := h.Estimate(0); got != 0.01 {
		t.Fatalf("estimate %v", got)
	}
	h.Add(0, 0.09)
	if got := h.Estimate(0); got != 0.09 {
		t.Errorf("stale cache: estimate %v, want 0.09", got)
	}
}

func TestHourlyEtHourWrap(t *testing.T) {
	h, err := NewHourlyEt(100, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Day 2, hour 3 lands in the same bin as day 1, hour 3.
	h.Add(sim.Time(sim.Day)+sim.Time(3*sim.Hour), 0.02)
	if got := h.Estimate(sim.Time(3 * sim.Hour)); got != 0.02 {
		t.Errorf("hour bin not shared across days: %v", got)
	}
}

// A windowed bin is sized to its window when an hour is first observed, so
// the rest of that hour's first pass (the run's first day) appends without
// growing: a controller at 2,500 domains otherwise reallocates two slices per
// domain a few times every hour of its first day. Values are unaffected.
func TestWindowedHourlyEtFirstPassDoesNotAllocate(t *testing.T) {
	const window = 60
	h, err := NewWindowedHourlyEt(99.5, 0.05, 10, window)
	if err != nil {
		t.Fatal(err)
	}
	// One observation opens each hour; the measured runs fill them.
	for hr := 0; hr < 24; hr++ {
		h.Add(sim.Time(hr)*sim.Time(sim.Hour), 0.01)
	}
	hr := 0
	allocs := testing.AllocsPerRun(20, func() {
		at := sim.Time(hr) * sim.Time(sim.Hour)
		for i := 1; i < 2*window; i++ {
			h.Add(at.Add(sim.Duration(i)*sim.Second), float64(i%7)*0.01)
		}
		hr++
	})
	if allocs != 0 {
		t.Errorf("filling a fresh windowed hour allocates %.1f objects, want 0", allocs)
	}
	if got := h.Samples(0); got != window {
		t.Errorf("hour 0 holds %d observations, want the window's %d", got, window)
	}
}
