package core

// This file holds the forecasting Et estimators — the alternatives to the
// paper's static hourly-percentile HourlyEt (§3.6, model.go) that the policy
// framework makes comparable. Both train on the same signal the controller
// already feeds HourlyEt: the normalized power increase observed over each
// fresh control interval, attributed to the interval's start time.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
)

// TrainableEt is an Et estimator the controller trains online from its own
// observations: Add records the normalized power increase observed over the
// interval that started at t. Implementations must be safe for concurrent
// use: callers outside the control loop read an estimator while it trains.
type TrainableEt interface {
	EtEstimator
	Add(t sim.Time, delta float64)
}

// EWMAEt forecasts Et as mean + band·deviation of the recent increases, both
// tracked with exponentially weighted moving averages (the deviation is the
// EWMA of absolute residuals, the classic RFC 6298 smoothing). It adapts
// within tens of intervals instead of days, at the cost of forgetting
// time-of-day structure: a load spike this minute raises the margin for the
// next few, whatever the hour.
type EWMAEt struct {
	mu    sync.Mutex
	alpha float64 // smoothing factor for mean and deviation
	band  float64 // safety multiplier on the deviation
	def   float64 // returned until minSamples observations arrive
	mean  float64
	dev   float64
	n     int
	min   int
}

// NewEWMAEt builds an EWMA estimator. alpha ∈ (0,1] is the smoothing factor,
// band ≥ 0 the deviation multiplier, defaultEt the margin used until
// minSamples observations arrive.
func NewEWMAEt(alpha, band, defaultEt float64, minSamples int) (*EWMAEt, error) {
	if math.IsNaN(alpha) || alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: EWMA alpha %v outside (0,1]", alpha)
	}
	if math.IsNaN(band) || math.IsInf(band, 0) || band < 0 {
		return nil, fmt.Errorf("core: EWMA band %v must be a finite non-negative number", band)
	}
	if math.IsNaN(defaultEt) || math.IsInf(defaultEt, 0) || defaultEt < 0 {
		return nil, fmt.Errorf("core: negative default Et %v", defaultEt)
	}
	if minSamples < 1 {
		minSamples = 1
	}
	return &EWMAEt{alpha: alpha, band: band, def: defaultEt, min: minSamples}, nil
}

// Add implements TrainableEt. Non-finite deltas are dropped — one NaN would
// poison the running mean permanently.
func (e *EWMAEt) Add(_ sim.Time, delta float64) {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return
	}
	e.mu.Lock()
	if e.n == 0 {
		e.mean = delta
	} else {
		d := delta - e.mean
		e.mean += e.alpha * d
		e.dev += e.alpha * (math.Abs(d) - e.dev)
	}
	e.n++
	e.mu.Unlock()
}

// Estimate implements EtEstimator: max(0, mean + band·dev), the default
// margin until enough observations arrived.
func (e *EWMAEt) Estimate(sim.Time) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n < e.min {
		return e.def
	}
	et := e.mean + e.band*e.dev
	if et < 0 {
		// A sustained decrease still gets a non-negative margin: Et < 0
		// would raise the threshold above the budget.
		et = 0
	}
	return et
}

// SeasonalNaiveEt is the seasonal-naive forecast per hour of day: prepare
// for the largest increase seen during the same hour yesterday. Where
// HourlyEt pools all history into one percentile per hour, the seasonal
// naive keeps only the previous day's extreme — it tracks regime changes
// within a day but carries no long-run memory.
type SeasonalNaiveEt struct {
	mu   sync.Mutex
	def  float64
	bins [24]seasonalBin
}

// seasonalBin tracks one hour-of-day's maxima for the completed previous day
// and the (possibly still accumulating) current day.
type seasonalBin struct {
	prevMax  float64
	curMax   float64
	curDay   int64
	havePrev bool
	haveCur  bool
}

// NewSeasonalNaiveEt builds a seasonal-naive estimator; defaultEt is the
// margin used for hours with no history yet.
func NewSeasonalNaiveEt(defaultEt float64) (*SeasonalNaiveEt, error) {
	if math.IsNaN(defaultEt) || math.IsInf(defaultEt, 0) || defaultEt < 0 {
		return nil, fmt.Errorf("core: negative default Et %v", defaultEt)
	}
	return &SeasonalNaiveEt{def: defaultEt}, nil
}

// Add implements TrainableEt: fold delta into the hour-of-day bin for the
// day containing t, rolling the previous day's maximum when a new day starts.
func (s *SeasonalNaiveEt) Add(t sim.Time, delta float64) {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return
	}
	day := int64(t) / int64(24*sim.Hour)
	s.mu.Lock()
	b := &s.bins[t.HourOfDay()]
	if !b.haveCur || day != b.curDay {
		if b.haveCur {
			b.prevMax, b.havePrev = b.curMax, true
		}
		b.curMax, b.curDay, b.haveCur = delta, day, true
	} else if delta > b.curMax {
		b.curMax = delta
	}
	s.mu.Unlock()
}

// Estimate implements EtEstimator: the same hour's previous-day maximum,
// falling back to the current day's running maximum and then the default.
func (s *SeasonalNaiveEt) Estimate(now sim.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := &s.bins[now.HourOfDay()]
	var et float64
	switch {
	case b.havePrev:
		et = b.prevMax
	case b.haveCur:
		et = b.curMax
	default:
		return s.def
	}
	if et < 0 {
		et = 0
	}
	return et
}
