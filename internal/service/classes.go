package service

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// ArrivalKind selects a client class's arrival process.
type ArrivalKind int

const (
	// Steady is a homogeneous Poisson stream at the class's base rate.
	Steady ArrivalKind = iota
	// Diurnal modulates the base rate sinusoidally over a 24 h period,
	// peaking at PeakHour with relative swing Amplitude.
	Diurnal
	// Flash is a two-state MMPP (Markov-modulated Poisson process): the
	// class idles at its base rate and ignites into a flash crowd at
	// BurstMult× the base rate. Per window, an idle class ignites with
	// probability BurstStartProb and a burning one extinguishes with
	// BurstStopProb, so burst durations are geometric — the bursty
	// flash-crowd shape ServeGen-style generators model.
	Flash
)

// String returns the kind name.
func (k ArrivalKind) String() string {
	switch k {
	case Steady:
		return "steady"
	case Diurnal:
		return "diurnal"
	case Flash:
		return "flash"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// Class is one population of simulated clients sharing an arrival process.
// Only the aggregate arrival rate is simulated — Users × RPSPerUser
// requests/s spread across the service's instances — never per-user state,
// which is what lets a few classes model millions of users over a
// 100k-server fleet at a cost independent of the population size.
type Class struct {
	Name string
	Kind ArrivalKind
	// Users is the simulated client population; RPSPerUser is the mean
	// per-user request rate. Their product is the class's aggregate base
	// arrival rate across the whole service.
	Users      int
	RPSPerUser float64
	// PeakHour and Amplitude shape the Diurnal kind: rate(t) = base ×
	// (1 + Amplitude·cos(2π·(hour(t)−PeakHour)/24)). Amplitude must be in
	// [0, 1).
	PeakHour  float64
	Amplitude float64
	// BurstMult, BurstStartProb and BurstStopProb shape the Flash kind (see
	// ArrivalKind). BurstMult must be ≥ 1; the probabilities in [0, 1].
	BurstMult      float64
	BurstStartProb float64
	BurstStopProb  float64
}

// BaseRPS returns the class's aggregate base arrival rate in requests/s.
func (c Class) BaseRPS() float64 { return float64(c.Users) * c.RPSPerUser }

// validate rejects unusable class parameters.
func (c Class) validate() error {
	if c.Name == "" {
		return fmt.Errorf("class has no name")
	}
	if c.Users <= 0 {
		return fmt.Errorf("class %s has %d users", c.Name, c.Users)
	}
	if !(c.RPSPerUser > 0) || math.IsInf(c.RPSPerUser, 0) {
		return fmt.Errorf("class %s has per-user rate %v", c.Name, c.RPSPerUser)
	}
	switch c.Kind {
	case Steady:
	case Diurnal:
		if !(c.Amplitude >= 0 && c.Amplitude < 1) { // also catches NaN
			return fmt.Errorf("class %s diurnal amplitude %v outside [0,1)", c.Name, c.Amplitude)
		}
		if math.IsNaN(c.PeakHour) || math.IsInf(c.PeakHour, 0) {
			return fmt.Errorf("class %s diurnal peak hour %v is not finite", c.Name, c.PeakHour)
		}
	case Flash:
		if c.BurstMult < 1 || math.IsInf(c.BurstMult, 0) || math.IsNaN(c.BurstMult) {
			return fmt.Errorf("class %s burst multiplier %v must be ≥ 1 and finite", c.Name, c.BurstMult)
		}
		if !(c.BurstStartProb >= 0 && c.BurstStartProb <= 1 && c.BurstStopProb >= 0 && c.BurstStopProb <= 1) {
			return fmt.Errorf("class %s burst probabilities (%v, %v) outside [0,1]",
				c.Name, c.BurstStartProb, c.BurstStopProb)
		}
	default:
		return fmt.Errorf("class %s has unknown arrival kind %d", c.Name, int(c.Kind))
	}
	// An infinite rate makes every gap between arrivals zero: a window would
	// never finish replaying.
	if math.IsInf(c.peakRPS(), 0) {
		return fmt.Errorf("class %s peak rate overflows (%d users at %v requests/s)", c.Name, c.Users, c.RPSPerUser)
	}
	return nil
}

// peakRPS is the highest aggregate arrival rate the class's process reaches:
// the diurnal crest, or the flash crowd.
func (c Class) peakRPS() float64 {
	switch c.Kind {
	case Diurnal:
		return c.BaseRPS() * (1 + c.Amplitude)
	case Flash:
		return c.BaseRPS() * c.BurstMult
	}
	return c.BaseRPS()
}

// DefaultClasses splits a user population into the standard three-class mix:
// 60 % steady background traffic, 25 % office-hours diurnal clients peaking
// at 14:00, and 15 % flash-crowd clients that ignite to 4× for
// geometrically-distributed bursts (mean 4 windows, igniting about every 50).
func DefaultClasses(users int, rpsPerUser float64) []Class {
	steady := users * 60 / 100
	diurnal := users * 25 / 100
	flash := users - steady - diurnal
	return []Class{
		{Name: "steady", Kind: Steady, Users: steady, RPSPerUser: rpsPerUser},
		{Name: "diurnal", Kind: Diurnal, Users: diurnal, RPSPerUser: rpsPerUser,
			PeakHour: 14, Amplitude: 0.35},
		{Name: "flash", Kind: Flash, Users: flash, RPSPerUser: rpsPerUser,
			BurstMult: 4, BurstStartProb: 0.02, BurstStopProb: 0.25},
	}
}

// classState is one class's runtime: its static config, MMPP phase and the
// rate in force for the window being closed.
type classState struct {
	cfg   Class
	rng   *rand.Rand // MMPP phase transitions only
	burst bool       // Flash kind: currently in a flash crowd
	// rateRPS is the aggregate arrival rate used for the most recently
	// closed window (exported to /metrics).
	rateRPS float64
}

// windowRate returns the class's aggregate arrival rate (requests/s) for a
// window starting at the given time, under the current MMPP phase.
func (cs *classState) windowRate(at sim.Time) float64 {
	base := cs.cfg.BaseRPS()
	switch cs.cfg.Kind {
	case Diurnal:
		h := float64(at) / float64(sim.Hour)
		return base * (1 + cs.cfg.Amplitude*math.Cos(2*math.Pi*(h-cs.cfg.PeakHour)/24))
	case Flash:
		if cs.burst {
			return base * cs.cfg.BurstMult
		}
		return base
	default:
		return base
	}
}

// advancePhase steps the MMPP state machine one window. Exactly one RNG draw
// per window per Flash class keeps the stream deterministic and independent
// of the per-instance request RNGs. The flash crowd is global: every
// instance sees the ignited rate in the same windows, the way a real event
// hits the whole fleet at once.
func (cs *classState) advancePhase() {
	if cs.cfg.Kind != Flash {
		return
	}
	x := cs.rng.Float64()
	if cs.burst {
		cs.burst = x >= cs.cfg.BurstStopProb
	} else {
		cs.burst = x < cs.cfg.BurstStartProb
	}
}
