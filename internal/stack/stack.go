// Package stack assembles the fixed pipeline the paper's controller sits on
// (§3.1, Fig 3): servers → scheduler → per-minute power monitor → TSDB, fed
// by a workload generator, all on one engine. Every simulated deployment in
// this repository — an experiment rig, a scenario, a powermon instance, a
// federation shard — is one Stack, built here and nowhere else; the package
// also owns the sizing arithmetic around it (rows of N servers, the arrival
// rate that steers a fleet to a target power, the default control gradient).
//
// It is a leaf: it imports the layers it wires and nothing that builds on
// them, so any package above (core's callers, experiment, federate) can use
// it without an import cycle.
package stack

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// DefaultKr is the control-effect gradient measured by the Fig 5 calibration
// (experiment.RunFig5) on the default stack; see EXPERIMENTS.md. Callers use
// it when no freshly calibrated value is supplied; production deployments
// should calibrate against their own workload, exactly as the paper does.
const DefaultKr = 0.012

// Stack is a fully assembled simulated deployment: cluster, scheduler,
// workload generator, TSDB and power monitor, all driven by one engine.
type Stack struct {
	Eng     *sim.Engine
	Cluster *cluster.Cluster
	Sched   *scheduler.Scheduler
	DB      *tsdb.DB
	Mon     *monitor.Monitor
	Gen     *workload.Generator
	Seed    uint64
}

// Config assembles a Stack.
type Config struct {
	Seed     uint64
	Cluster  cluster.Spec
	Products []workload.Product
	// ProductWeights[p] is the row-affinity vector for product p; nil
	// entries mean uniform. Every weight is finite and at least 0.
	ProductWeights [][]float64
	// Retention bounds TSDB series length (0 = unlimited).
	Retention int
	// MonitorDropRate injects monitor sweep failures (see monitor.Config).
	MonitorDropRate float64
}

// New builds and wires all components. Nothing is started; call StartBase
// (and any controller/capper) before running the engine, starting the
// monitor first so each minute's samples deterministically precede their
// consumers.
func New(cfg Config) (*Stack, error) {
	eng := sim.NewEngine()
	c, err := cluster.New(cfg.Cluster, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sched := scheduler.New(eng, c, cfg.Seed, nil)
	if err := sched.SetProductWeights(cfg.ProductWeights); err != nil {
		return nil, err
	}
	db := tsdb.New(cfg.Retention)
	mcfg := monitor.DefaultConfig()
	mcfg.SweepDropRate = cfg.MonitorDropRate
	mcfg.DropSeed = cfg.Seed
	mon, err := monitor.New(eng, c, db, mcfg)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(eng, cfg.Seed, cfg.Products, workload.DefaultDurations(), sched.Submit)
	if err != nil {
		return nil, err
	}
	return &Stack{Eng: eng, Cluster: c, Sched: sched, DB: db, Mon: mon, Gen: gen, Seed: cfg.Seed}, nil
}

// StartBase starts the monitor and then the workload generator.
func (s *Stack) StartBase() {
	s.Mon.Start()
	s.Gen.Start()
}

// Run advances the simulation to the given absolute time.
func (s *Stack) Run(until sim.Time) error { return s.Eng.RunUntil(until) }

// RowSpec is the default server model laid out as rows of rowServers servers
// (a multiple of the 20-server rack).
func RowSpec(rows, rowServers int) cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.Rows = rows
	spec.RacksPerRow = rowServers / spec.ServersPerRack
	return spec
}

// JobsPerMinute is the arrival rate that steers servers servers of the given
// model to a mean power draw of targetFrac × rated: Little's law
// (workload.RateForPowerFraction) over the default job mix — one CPU per
// container, durations from workload.DefaultDurations.
func JobsPerMinute(spec cluster.Spec, targetFrac float64, servers int) float64 {
	return workload.RateForPowerFraction(targetFrac, spec.IdlePowerW, spec.RatedPowerW,
		spec.Containers, MeanJobMinutes(), 1.0) * float64(servers)
}

// MeanJobMinutes is the mean of workload.DefaultDurations as the generator
// actually samples it — truncated at Min and Max — estimated once by
// fixed-seed Monte Carlo (deterministic, accurate to well under a percent at
// 200k samples). The analytic DurationDist.Mean ignores the truncation and
// overshoots it by 11 %. JobsPerMinute is the forward calibration; this is for
// callers that invert it (trace.RateSchedule).
func MeanJobMinutes() float64 { return meanJobMinutes() }

var meanJobMinutes = sync.OnceValue(func() float64 {
	r := sim.NewRNG(0x7ca11b)
	const n = 200000
	dd := workload.DefaultDurations()
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += dd.Sample(r).Minutes()
	}
	return sum / n
})
