// Package core implements the paper's primary contribution: the Ampere
// statistical power controller. It periodically reads row-level (or
// group-level) power from the monitor, estimates the next interval's power
// increase Et from history, computes the freezing ratio with the receding
// horizon control model of §3.6, and advises the job scheduler through
// nothing but the freeze/unfreeze API (Algorithm 1).
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ControlSample is one controlled-experiment measurement of the effect of
// freezing: with freezing ratio U applied over one interval, the experiment
// group's power ended FU lower than the control group's (both normalized to
// the power budget). Fig 5 plots these samples.
type ControlSample struct {
	U  float64
	FU float64
}

// FitKr estimates the gradient kr of the linear control-effect model
// f(u) = kr·u from controlled-experiment samples, by least squares through
// the origin (f(0) = 0 by construction). It returns an error when the
// samples cannot identify a positive slope: ErrKrNotPositive, with the fit
// itself, when the slope is ≤ 0, and a plain error when there is no fit.
func FitKr(samples []ControlSample) (stats.LinearFit, error) {
	if len(samples) < 2 {
		return stats.LinearFit{}, errors.New("core: need at least two control samples to fit kr")
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		if s.U < 0 || s.U > 1 {
			return stats.LinearFit{}, fmt.Errorf("core: control sample %d has freezing ratio %v outside [0,1]", i, s.U)
		}
		xs[i] = s.U
		ys[i] = s.FU
	}
	fit, err := stats.FitLineThroughOrigin(xs, ys)
	if err != nil {
		return stats.LinearFit{}, err
	}
	if fit.Slope <= 0 {
		return fit, fmt.Errorf("%w (kr %v)", ErrKrNotPositive, fit.Slope)
	}
	return fit, nil
}

// ErrKrNotPositive is FitKr's error for a fitted kr ≤ 0: freezing servers
// does not reduce power, so the model is unusable as a controller gain, but
// the fit is still a measurement.
var ErrKrNotPositive = errors.New("core: fitted kr is not positive; freezing shows no power effect")

// GTPW returns the gain in throughput-per-provisioned-watt for a measured
// throughput ratio under an over-provisioning ratio (Eq. 18):
// GTPW = rT·(1+rO) − 1.
func GTPW(rT, rO float64) float64 { return rT*(1+rO) - 1 }

// EtEstimator predicts the normalized power-demand increase over the next
// control interval; 1 − Et defines the controller's safety threshold.
type EtEstimator interface {
	// Estimate returns Et (as a fraction of the power budget) for the
	// interval starting at now.
	Estimate(now sim.Time) float64
}

// ConstantEt is a fixed safety margin, used in ablations and as a fallback.
type ConstantEt float64

// Estimate implements EtEstimator.
func (c ConstantEt) Estimate(sim.Time) float64 { return float64(c) }

// HourlyEt is the paper's data-driven estimator (§3.6): it bins observed
// 1-minute power increases by hour of day and predicts the configured
// percentile (99.5 by default) of the bin matching the current hour —
// "preparing for almost the largest change in observed history". It is safe
// for concurrent use.
//
// Each bin is kept sorted by binary insertion (stats.SortedInsert), so an
// Add costs O(log n) comparisons plus one copy and Estimate is O(1) via
// stats.PercentileSorted — the controller's hot path never re-sorts history.
// An optional window bounds every bin to its most recent observations,
// capping month-long-simulation memory while keeping the estimate adaptive.
type HourlyEt struct {
	mu sync.Mutex
	// Percentile of the per-hour increase distribution to use.
	pct float64
	// def is returned while a bin has too few observations.
	def  float64
	bins [24]etBin
	// minSamples gates the switch from def to the data-driven estimate.
	minSamples int
	// window bounds each bin to its most recent observations; 0 = unbounded.
	window int
}

// etBin is one hour's observations, maintained in two orders at once: sorted
// holds the values ascending for percentile reads, ring holds them in
// arrival order (only when a window is set) so the oldest can be evicted.
type etBin struct {
	sorted []float64
	ring   []float64
	head   int // ring index of the oldest observation
}

// NewHourlyEt builds an estimator using the given percentile (e.g. 99.5) and
// a conservative default margin used until a bin has at least minSamples
// observations. Bins grow without bound; use NewWindowedHourlyEt to cap them.
func NewHourlyEt(percentile, defaultEt float64, minSamples int) (*HourlyEt, error) {
	return NewWindowedHourlyEt(percentile, defaultEt, minSamples, 0)
}

// NewWindowedHourlyEt is NewHourlyEt with each hour bin bounded to the most
// recent window observations (0 = unbounded). A one-minute control interval
// adds 60 observations per bin per simulated day, so a window of a few
// hundred spans several days of history at fixed memory.
func NewWindowedHourlyEt(percentile, defaultEt float64, minSamples, window int) (*HourlyEt, error) {
	if percentile <= 0 || percentile > 100 {
		return nil, fmt.Errorf("core: Et percentile %v outside (0, 100]", percentile)
	}
	if defaultEt < 0 {
		return nil, fmt.Errorf("core: negative default Et %v", defaultEt)
	}
	if window < 0 {
		return nil, fmt.Errorf("core: negative Et window %d", window)
	}
	if minSamples < 1 {
		minSamples = 1
	}
	return &HourlyEt{pct: percentile, def: defaultEt, minSamples: minSamples, window: window}, nil
}

// Add records a normalized power increase observed over the interval that
// started at t. Negative deltas (power decreases) are recorded too: they are
// part of the distribution, though high percentiles ignore them. Non-finite
// deltas are dropped — a NaN from a corrupt reading would break the bin's
// binary-search ordering and poison every later estimate.
func (h *HourlyEt) Add(t sim.Time, delta float64) {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return
	}
	hr := t.HourOfDay()
	h.mu.Lock()
	b := &h.bins[hr]
	if h.window > 0 {
		if b.ring == nil {
			// A windowed bin never holds more than window observations:
			// size it once, so no Add in a run's first pass through the
			// day allocates.
			b.ring = make([]float64, 0, h.window)
			b.sorted = make([]float64, 0, h.window)
		}
		if len(b.ring) == h.window {
			// Full: evict the oldest observation in arrival order.
			old := b.ring[b.head]
			b.ring[b.head] = delta
			b.head++
			if b.head == h.window {
				b.head = 0
			}
			b.sorted, _ = stats.SortedRemove(b.sorted, old)
		} else {
			b.ring = append(b.ring, delta)
		}
	}
	b.sorted = stats.SortedInsert(b.sorted, delta)
	h.mu.Unlock()
}

// SetPercentile retargets the estimator's percentile at runtime — the
// counterfactual-replay path for "what if Et had been the 95th percentile".
// The accumulated observations are untouched; only the read point moves.
func (h *HourlyEt) SetPercentile(pct float64) error {
	if math.IsNaN(pct) || pct <= 0 || pct > 100 {
		return fmt.Errorf("core: Et percentile %v outside (0, 100]", pct)
	}
	h.mu.Lock()
	h.pct = pct
	h.mu.Unlock()
	return nil
}

// Percentile returns the percentile the estimator currently reads at.
func (h *HourlyEt) Percentile() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pct
}

// HourlyEtState is a deep copy of an HourlyEt's full learned state, exported
// for snapshotting (internal/whatif). Bins preserve both maintained orders —
// Sorted for percentile reads and Ring/Head for windowed eviction — so a
// restored estimator continues evicting in exact arrival order.
type HourlyEtState struct {
	Percentile float64
	Default    float64
	MinSamples int
	Window     int
	Bins       [24]EtBinState
}

// EtBinState is one hour bin's observations in both maintained orders.
type EtBinState struct {
	Sorted []float64
	Ring   []float64
	Head   int
}

// ExportState deep-copies the estimator's state.
func (h *HourlyEt) ExportState() HourlyEtState {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HourlyEtState{
		Percentile: h.pct, Default: h.def,
		MinSamples: h.minSamples, Window: h.window,
	}
	for i := range h.bins {
		b := &h.bins[i]
		st.Bins[i] = EtBinState{
			Sorted: append([]float64(nil), b.sorted...),
			Ring:   append([]float64(nil), b.ring...),
			Head:   b.head,
		}
	}
	return st
}

// Samples returns the number of observations in the bin for hour hr.
func (h *HourlyEt) Samples(hr int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.bins[hr%24].sorted)
}

// Estimate implements EtEstimator.
func (h *HourlyEt) Estimate(now sim.Time) float64 {
	hr := now.HourOfDay()
	h.mu.Lock()
	defer h.mu.Unlock()
	bin := h.bins[hr].sorted
	if len(bin) < h.minSamples {
		return h.def
	}
	et := stats.PercentileSorted(bin, h.pct)
	if et < 0 {
		// A uniformly decreasing hour still gets a non-negative margin:
		// Et < 0 would raise the threshold above the budget.
		et = 0
	}
	return et
}
