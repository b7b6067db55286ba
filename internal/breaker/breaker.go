// Package breaker models the row PDU's physical circuit breaker — the
// reason power violations matter at all: "the row-level power budget is
// enforced by physical circuit breakers (fuses) in each PDU … it would cause
// catastrophic service disruptions to cut down the power of hundreds of
// servers at the same time" (§2.1). The breaker follows an inverse-time
// curve modeled as a thermal accumulator: overload integrates heat, running
// under budget dissipates it, and deep overloads trip fast while small ones
// take minutes — the standard behaviour of thermal-magnetic breakers.
package breaker

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The fixed shape of the trip curve.
const (
	// instantFactor is the draw, as a multiple of the budget, that trips
	// immediately regardless of accumulation (a magnetic trip).
	instantFactor = 1.5
	// coolSeconds is how long a breaker at or under budget takes to
	// dissipate a full trip threshold of heat.
	coolSeconds = 600
)

// Config parameterizes the trip curve.
type Config struct {
	// BudgetW is the protected limit.
	BudgetW float64
	// Interval between draw evaluations; DefaultConfig sets 1 s.
	Interval sim.Duration
	// TripOverloadSeconds is the accumulated overload, in
	// (fractional-overload × seconds), that trips the breaker: with
	// DefaultConfig's 30, a steady 5 % overload trips after 10 minutes and
	// a 25 % overload after two.
	TripOverloadSeconds float64
}

// DefaultConfig returns the curve described on Config.
func DefaultConfig(budgetW float64) Config {
	return Config{
		BudgetW:             budgetW,
		Interval:            sim.Second,
		TripOverloadSeconds: 30,
	}
}

// Breaker protects one server set.
type Breaker struct {
	eng     *sim.Engine
	cfg     Config
	servers []*cluster.Server

	heat      float64
	tripped   bool
	tripTime  sim.Time
	onTrip    func(now sim.Time)
	handle    sim.Handle
	evaluated int64
	met       *metrics
}

// metrics is the breaker's optional observability wiring. All fields are
// atomic, so a live /metrics scrape never races the simulation goroutine
// stepping the breaker.
type metrics struct {
	trips       *obs.Counter
	evaluations *obs.Counter
	heat        *obs.Gauge
	state       *obs.Gauge
}

// Instrument registers the breaker's metrics on reg under the given domain
// label (nil reg is a no-op):
//
//	breaker_trips_total{domain}         counter
//	breaker_evaluations_total{domain}   counter
//	breaker_heat{domain}                gauge, fraction of trip threshold
//	breaker_tripped{domain}             gauge, 1 when open
//
// Call before Start.
func (b *Breaker) Instrument(reg *obs.Registry, domain string) {
	if reg == nil {
		return
	}
	b.met = &metrics{
		trips: reg.CounterVec("breaker_trips_total",
			"Breaker trip events (open circuit).", "domain").With(domain),
		evaluations: reg.CounterVec("breaker_evaluations_total",
			"Draw evaluations against the trip curve.", "domain").With(domain),
		heat: reg.GaugeVec("breaker_heat",
			"Thermal accumulator as a fraction of the trip threshold.", "domain").With(domain),
		state: reg.GaugeVec("breaker_tripped",
			"1 when the breaker is open, 0 when closed.", "domain").With(domain),
	}
}

// New validates the config and builds a breaker over the servers.
func New(eng *sim.Engine, cfg Config, servers []*cluster.Server) (*Breaker, error) {
	if err := checkBudget(cfg.BudgetW); err != nil {
		return nil, err
	}
	if len(servers) == 0 {
		return nil, fmt.Errorf("breaker: no servers")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("breaker: non-positive interval %v", cfg.Interval)
	}
	if t := cfg.TripOverloadSeconds; math.IsNaN(t) || math.IsInf(t, 0) || t <= 0 {
		return nil, fmt.Errorf("breaker: trip threshold %v must be a finite positive number", t)
	}
	return &Breaker{eng: eng, cfg: cfg, servers: servers}, nil
}

// OnTrip registers the callback fired exactly once when the breaker opens.
// The callback performs the blast-radius consequences (normally failing
// every server via the scheduler).
func (b *Breaker) OnTrip(fn func(now sim.Time)) { b.onTrip = fn }

// Start begins evaluating the draw every interval.
func (b *Breaker) Start() {
	if b.handle != (sim.Handle{}) {
		return
	}
	b.handle = b.eng.Every(b.eng.Now(), b.cfg.Interval, "pdu-breaker", b.step)
}

// Stop halts evaluation (the breaker state is preserved).
func (b *Breaker) Stop() {
	b.eng.Cancel(b.handle)
	b.handle = sim.Handle{}
}

// Tripped reports whether the breaker has opened, and when.
func (b *Breaker) Tripped() (bool, sim.Time) { return b.tripped, b.tripTime }

// SetBudget retargets the protected limit — a grid curtailment moves the
// enforceable envelope, and the relay protecting the curtailed feed trips
// against the reduced limit, not the nameplate one. The thermal accumulator
// carries over: heat built against the old limit does not reset merely
// because the limit moved.
func (b *Breaker) SetBudget(w float64) error {
	if err := checkBudget(w); err != nil {
		return err
	}
	b.cfg.BudgetW = w
	return nil
}

// checkBudget rejects a limit the draw can never exceed (NaN, +Inf) or
// always exceeds (zero, negative).
func checkBudget(w float64) error {
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("breaker: budget %v must be a finite positive number", w)
	}
	return nil
}

// Budget returns the currently protected limit in watts.
func (b *Breaker) Budget() float64 { return b.cfg.BudgetW }

// Heat returns the thermal accumulator as a fraction of the trip threshold.
func (b *Breaker) Heat() float64 { return b.heat / b.cfg.TripOverloadSeconds }

// Reset closes the breaker again (after the operator clears the fault) and
// zeroes the accumulator.
func (b *Breaker) Reset() {
	b.tripped = false
	b.heat = 0
	if b.met != nil {
		b.met.state.Set(0)
		b.met.heat.Set(0)
	}
}

func (b *Breaker) step(now sim.Time) {
	b.evaluated++
	if b.met != nil {
		b.met.evaluations.Inc()
		b.met.heat.Set(b.Heat())
	}
	if b.tripped {
		return
	}
	draw := 0.0
	for _, sv := range b.servers {
		draw += sv.DrawW()
	}
	dt := b.cfg.Interval.Seconds()
	overload := draw/b.cfg.BudgetW - 1
	switch {
	case overload >= instantFactor-1:
		b.trip(now)
		return
	case overload > 0:
		b.heat += overload * dt
		if b.heat >= b.cfg.TripOverloadSeconds {
			b.trip(now)
		}
	default:
		b.heat -= b.cfg.TripOverloadSeconds / coolSeconds * dt
		if b.heat < 0 {
			b.heat = 0
		}
	}
}

func (b *Breaker) trip(now sim.Time) {
	b.tripped = true
	b.tripTime = now
	if b.met != nil {
		b.met.trips.Inc()
		b.met.state.Set(1)
	}
	if b.onTrip != nil {
		b.onTrip(now)
	}
}
