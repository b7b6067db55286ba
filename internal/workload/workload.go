// Package workload generates the synthetic production workload the paper's
// evaluation runs against: batch jobs whose duration distribution matches
// Fig 7 (mean ≈ 9 min, 40 % finish within 2 min), arriving at 400–600 jobs
// per minute with the diurnal swings of Fig 8, the small-but-spiky 1-minute
// power deltas of Fig 9, and the weakly correlated per-row product mixes of
// Fig 2.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Job is one batch task (a Map-Reduce task in the paper): it runs to
// completion in exactly one scheduler container.
type Job struct {
	ID      int64
	Product int // index into the generator's product list
	Arrival sim.Time
	// Work is the full-speed execution time. On a DVFS-capped server running
	// at frequency factor f the job progresses at rate f, so wall-clock
	// duration stretches to Work/f.
	Work sim.Duration
	// CPU is the job's CPU demand in container units; it drives server
	// utilization and hence power.
	CPU float64
}

// DurationDist is the truncated lognormal batch-job duration distribution.
type DurationDist struct {
	// Mu and Sigma parameterize the underlying normal of log-duration in
	// minutes.
	Mu, Sigma float64
	// Min and Max clamp sampled durations.
	Min, Max sim.Duration
}

// DefaultDurations matches the paper's Fig 7: lognormal with mean 9 minutes
// and P(duration ≤ 2 min) = 0.40.
func DefaultDurations() DurationDist {
	return DurationDist{Mu: 1.073, Sigma: 1.5, Min: 5 * sim.Second, Max: 100 * sim.Minute}
}

// Sample draws one job duration.
func (d DurationDist) Sample(r *rand.Rand) sim.Duration {
	minutes := math.Exp(r.NormFloat64()*d.Sigma + d.Mu)
	dur := sim.DurationOfMinutes(minutes)
	if dur < d.Min {
		dur = d.Min
	}
	if d.Max > 0 && dur > d.Max {
		dur = d.Max
	}
	return dur
}

// Mean returns the analytic mean of the untruncated lognormal, in minutes.
// Truncation at the default Max shaves 9.7 % off (9.01 → 8.13 minutes), so
// load calibration uses the sampled mean, stack.MeanJobMinutes, instead.
func (d DurationDist) Mean() float64 {
	return math.Exp(d.Mu + d.Sigma*d.Sigma/2)
}

// MaxJobsPerMinute is the largest base or schedule rate NewGenerator takes,
// some 700 times a million-server fleet's load at 90 % power (1.5M jobs a
// minute). Far above it a minute's Poisson draw leaves int64, where
// sim.Poisson's conversion is implementation-defined (zero jobs on amd64).
const MaxJobsPerMinute = 1e9

// Product describes one application's load on the cluster. Distinct rows run
// distinct product mixes in the paper, producing spatial power imbalance; we
// reproduce that by giving every product its own diurnal phase and noise
// stream here, and its own row affinity in stack.Config.ProductWeights (the
// scheduler samples a row proportional to weight × available capacity).
type Product struct {
	Name string
	// BaseJobsPerMinute is the mean arrival rate before modulation, at most
	// MaxJobsPerMinute.
	BaseJobsPerMinute float64
	// DiurnalAmplitude is the relative size of the load sinusoid, in [0, 1]
	// (0 = flat). Above 1 the trough's rate would be negative and clamp to
	// 0, raising the mean above BaseJobsPerMinute.
	DiurnalAmplitude float64
	// PeakHour is the hour of day at which the sinusoid peaks (finite).
	PeakHour float64
	// PeriodHours is the sinusoid period, finite and ≥ 0; 0 means the usual
	// 24 h day.
	// Shorter periods model workloads that ramp up and down within hours
	// (the §4.4 four-hour window).
	PeriodHours float64
	// Schedule, when non-empty, replaces the Base×diurnal rate with an
	// explicit per-minute rate series (jobs per minute), cycled when the
	// simulation runs longer than the schedule. Wobble and surges still
	// modulate on top unless zeroed. Trace replay (internal/trace) builds
	// these from recorded power traces. Every entry is finite and at most
	// MaxJobsPerMinute.
	Schedule []float64
	// ScheduleStart anchors Schedule[0] in virtual time; minutes before it
	// use Schedule[0]. Defaults to time zero.
	ScheduleStart sim.Time
	// NoisePhi and NoiseSigma parameterize multiplicative AR(1) minute-scale
	// rate wobble.
	NoisePhi, NoiseSigma float64
	// SurgeProb is the per-minute probability that a load surge starts;
	// surges multiply the rate by [SurgeMinMult, SurgeMaxMult] for
	// [SurgeMinMinutes, SurgeMaxMinutes]. Surges create the rare large
	// 1-minute power deltas in Fig 9's tail.
	SurgeProb                        float64
	SurgeMinMult, SurgeMaxMult       float64
	SurgeMinMinutes, SurgeMaxMinutes int
}

// DefaultProduct returns a single product with paper-like variation,
// uniform row affinity, and the given base rate.
func DefaultProduct(name string, baseJobsPerMinute float64) Product {
	return Product{
		Name:              name,
		BaseJobsPerMinute: baseJobsPerMinute,
		DiurnalAmplitude:  0.10,
		PeakHour:          14,
		NoisePhi:          0.6,
		NoiseSigma:        0.06,
		SurgeProb:         0.004,
		SurgeMinMult:      1.5,
		SurgeMaxMult:      3.0,
		SurgeMinMinutes:   2,
		SurgeMaxMinutes:   10,
	}
}

// Sink receives generated jobs (normally the scheduler's Submit). j is valid
// for the call only: the generator recycles its storage as soon as the sink
// returns, so a sink that needs the job later must copy it (do not retain
// *Job past the call).
type Sink func(j *Job)

// Generator emits batch jobs minute by minute according to its products'
// modulated Poisson processes. It is driven entirely by the sim engine.
type Generator struct {
	eng      *sim.Engine
	products []Product
	dd       DurationDist
	sink     Sink

	rngs   []*rand.Rand // one per product
	wobble []*wobbleState
	nextID int64 // also the number of jobs emitted so far
	handle sim.Handle

	// pending is the slab of jobs generated for the current minute and not
	// yet arrived; free stacks its recycled slots. An arrival is an entry of
	// the arrivals batch carrying a slot, not a closure or a heap event, so a
	// job costs no allocation between tick and sink. touched is the sink of
	// the arrivals' touch hook.
	pending  sim.Slab[Job]
	free     []int32
	arrivals *sim.Batch
	touched  int64
}

type wobbleState struct {
	x         float64 // AR(1) state
	surgeLeft int     // minutes remaining in the active surge
	surgeMult float64
}

// NewGenerator builds a generator. sink must be non-nil.
func NewGenerator(eng *sim.Engine, seed uint64, products []Product, dd DurationDist, sink Sink) (*Generator, error) {
	if sink == nil {
		return nil, fmt.Errorf("workload: nil sink")
	}
	if len(products) == 0 {
		return nil, fmt.Errorf("workload: no products")
	}
	for i, p := range products {
		// A non-finite or huge mean makes sim.Poisson convert a value beyond
		// int64 to int, which on amd64 comes out as zero jobs, silently.
		if !(p.BaseJobsPerMinute >= 0 && p.BaseJobsPerMinute <= MaxJobsPerMinute) {
			return nil, fmt.Errorf("workload: product %d (%s) has rate %v, want a number in [0, %g]", i, p.Name, p.BaseJobsPerMinute, float64(MaxJobsPerMinute))
		}
		for k, r := range p.Schedule {
			if math.IsNaN(r) || math.IsInf(r, -1) || r > MaxJobsPerMinute {
				return nil, fmt.Errorf("workload: product %d (%s) has schedule rate %v at minute %d, want a finite number at most %g", i, p.Name, r, k, float64(MaxJobsPerMinute))
			}
		}
		if !(p.DiurnalAmplitude >= 0 && p.DiurnalAmplitude <= 1) {
			return nil, fmt.Errorf("workload: product %d (%s) has diurnal amplitude %v outside [0, 1]", i, p.Name, p.DiurnalAmplitude)
		}
		// A non-finite peak or a NaN period makes the sinusoid NaN (no jobs),
		// an infinite period makes it flat, and diurnal would read a negative
		// period as the 24 h default.
		if math.IsNaN(p.PeakHour) || math.IsInf(p.PeakHour, 0) {
			return nil, fmt.Errorf("workload: product %d (%s) has peak hour %v, want a finite number", i, p.Name, p.PeakHour)
		}
		if !(p.PeriodHours >= 0) || math.IsInf(p.PeriodHours, 1) {
			return nil, fmt.Errorf("workload: product %d (%s) has period %v hours, want a finite number ≥ 0", i, p.Name, p.PeriodHours)
		}
		if p.NoiseSigma < 0 {
			return nil, fmt.Errorf("workload: product %d (%s) has negative noise sigma %v", i, p.Name, p.NoiseSigma)
		}
		if !(p.NoisePhi > -1 && p.NoisePhi < 1) {
			// Outside (−1, 1) the wobble's √(1−φ²) is NaN, and so is the rate.
			return nil, fmt.Errorf("workload: product %d (%s) has noise phi %v outside (-1, 1)", i, p.Name, p.NoisePhi)
		}
	}
	g := &Generator{eng: eng, products: products, dd: dd, sink: sink}
	g.arrivals = eng.NewBatch("job-arrival", g.arrive, g.touch)
	g.rngs = make([]*rand.Rand, len(products))
	g.wobble = make([]*wobbleState, len(products))
	for i := range products {
		g.rngs[i] = sim.SubRNG(seed, fmt.Sprintf("product-%d-%s", i, products[i].Name))
		g.wobble[i] = &wobbleState{surgeMult: 1}
	}
	return g, nil
}

// Start begins emitting jobs every minute, beginning immediately.
func (g *Generator) Start() {
	if g.handle != (sim.Handle{}) {
		return
	}
	g.handle = g.eng.Every(g.eng.Now(), sim.Minute, "workload-tick", g.tick)
}

// Stop halts emission. Already-scheduled arrivals within the current minute
// still fire.
func (g *Generator) Stop() {
	g.eng.Cancel(g.handle)
	g.handle = sim.Handle{}
}

// Generated returns the number of jobs emitted so far.
func (g *Generator) Generated() int64 { return g.nextID }

// RateAt returns product i's modulated mean rate for the minute at t,
// excluding Poisson sampling noise. Exposed for tests and calibration.
func (g *Generator) RateAt(i int, t sim.Time) float64 {
	p := g.products[i]
	w := g.wobble[i]
	base := p.BaseJobsPerMinute * diurnal(p, t)
	if len(p.Schedule) > 0 {
		idx := int(t.Minute() - p.ScheduleStart.Minute())
		if idx < 0 {
			idx = 0
		}
		base = p.Schedule[idx%len(p.Schedule)]
	}
	rate := base * (1 + w.x) * w.surgeMult
	if rate < 0 {
		rate = 0
	}
	return rate
}

func diurnal(p Product, t sim.Time) float64 {
	if p.DiurnalAmplitude == 0 {
		return 1
	}
	period := p.PeriodHours
	if period <= 0 {
		period = 24
	}
	h := float64(t) / float64(sim.Hour)
	return 1 + p.DiurnalAmplitude*math.Cos(2*math.Pi*(h-p.PeakHour)/period)
}

func (g *Generator) tick(now sim.Time) {
	for i := range g.products {
		p := g.products[i]
		r := g.rngs[i]
		w := g.wobble[i]

		// Advance the AR(1) wobble.
		if p.NoiseSigma > 0 {
			innov := p.NoiseSigma * math.Sqrt(1-p.NoisePhi*p.NoisePhi) * r.NormFloat64()
			w.x = p.NoisePhi*w.x + innov
		}
		// Advance / start surges.
		if w.surgeLeft > 0 {
			w.surgeLeft--
			if w.surgeLeft == 0 {
				w.surgeMult = 1
			}
		} else if p.SurgeProb > 0 && r.Float64() < p.SurgeProb {
			w.surgeMult = p.SurgeMinMult + r.Float64()*(p.SurgeMaxMult-p.SurgeMinMult)
			span := p.SurgeMaxMinutes - p.SurgeMinMinutes
			w.surgeLeft = p.SurgeMinMinutes
			if span > 0 {
				w.surgeLeft += r.Intn(span + 1)
			}
		}

		for n := sim.Poisson(r, g.RateAt(i, now)); n > 0; n-- {
			job := Job{
				ID:      g.nextID,
				Product: i,
				Work:    g.dd.Sample(r),
				CPU:     0.5 + r.Float64(), // U(0.5, 1.5)
			}
			g.nextID++
			job.Arrival = now.Add(sim.Duration(r.Int63n(int64(sim.Minute))))
			g.arrivals.Add(job.Arrival, int64(g.hold(job)))
		}
	}
}

// hold stores job in the pending slab until its arrival and returns its slot.
func (g *Generator) hold(job Job) int32 {
	var slot int32
	if n := len(g.free); n > 0 {
		slot = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		slot = g.pending.Add()
	}
	*g.pending.At(slot) = job
	return slot
}

// touch is the arrivals' touch hook (see sim.Batch): it loads the pending
// jobs of the next arrivals, which are read in random slot order, before
// the sink reads them. A Job may straddle two cache lines, so both its
// first and its last word are loaded.
func (g *Generator) touch(slots []int64) {
	sink := g.touched
	for _, slot := range slots {
		j := g.pending.At(int32(slot))
		sink += j.ID + int64(math.Float64bits(j.CPU))
	}
	g.touched = sink
}

// arrive hands a pending job to the sink and recycles its slot.
func (g *Generator) arrive(_ sim.Time, slot int64) {
	g.sink(g.pending.At(int32(slot)))
	g.free = append(g.free, int32(slot))
}

// RateForPowerFraction computes the per-server arrival rate (jobs per minute
// per server) that steers a server population to the given mean power draw
// as a fraction of rated power, using Little's law:
//
//	concurrent/server = rate · meanDuration
//	utilization       = concurrent · meanCPU / containers
//	powerFrac         = (idle + (rated−idle)·utilization) / rated
//
// Experiments use it to set "light" and "heavy" workloads by target power.
//
// Degenerate inputs return 0 rather than a non-finite rate: ratedW == idleW
// would divide by zero (+Inf jobs/minute would then poison every generator
// window), and non-positive containers, duration or CPU have no physical
// reading.
func RateForPowerFraction(powerFrac, idleW, ratedW float64, containers int, meanDurMinutes, meanCPU float64) float64 {
	if math.IsNaN(powerFrac) || math.IsNaN(idleW) || math.IsNaN(ratedW) ||
		math.IsInf(ratedW, 0) || math.IsInf(idleW, 0) {
		return 0
	}
	if ratedW <= idleW || idleW < 0 {
		return 0
	}
	if containers <= 0 || meanDurMinutes <= 0 || meanCPU <= 0 ||
		math.IsNaN(meanDurMinutes) || math.IsNaN(meanCPU) {
		return 0
	}
	idleFrac := idleW / ratedW
	if powerFrac < idleFrac {
		return 0
	}
	util := (powerFrac - idleFrac) / (1 - idleFrac)
	concurrent := util * float64(containers) / meanCPU
	return concurrent / meanDurMinutes
}
