package experiment

import (
	"fmt"

	"repro/internal/capping"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
)

// Fig11Config parameterizes the §4.3 interactive-latency comparison: a
// Redis-like service shares a row with batch jobs under rO = 0.25
// over-provisioning; the row is protected either by DVFS power capping alone
// or by Ampere (with capping as the rarely-triggered safety net).
type Fig11Config struct {
	Seed           uint64
	RowServers     int
	ServiceServers int
	// ServiceContainers is each instance's pinned footprint.
	ServiceContainers int
	RO                float64
	// BatchTargetFrac is the cluster-wide batch-load target (fraction of
	// rated); the service reservations push the service row above it so
	// peak demand exceeds the scaled budget.
	BatchTargetFrac float64
	// RequestsPerSecond per instance. Service times are scaled ×10 from
	// realistic Redis numbers so the same queue utilization needs 10×
	// fewer simulated requests; Fig 11 reports normalized latency, so the
	// scale cancels.
	RequestsPerSecond float64
	Day
}

// DefaultFig11 mirrors the paper's setup at simulation scale.
func DefaultFig11() Fig11Config {
	return Fig11Config{
		Seed:              11,
		RowServers:        160,
		ServiceServers:    24,
		ServiceContainers: 8,
		RO:                0.25,
		BatchTargetFrac:   0.75,
		RequestsPerSecond: 145,
		Day:               Day{Warmup: 2 * sim.Hour, Pretrain: 24 * sim.Hour, Measure: 2 * sim.Hour},
	}
}

// Fig11Row is one operation's outcome.
type Fig11Row struct {
	Op string
	// P999CappingUS and P999AmpereUS are the measured 99.9th-percentile
	// latencies (µs, at the ×10 service-time scale).
	P999CappingUS float64
	P999AmpereUS  float64
	// Inflation = capping / ampere (the paper's Fig 11 shows capping at
	// roughly twice Ampere's bar heights).
	Inflation float64
	// SLOMissCapping and SLOMissAmpere are the fractions of requests
	// missing the op's latency objective under each regime.
	SLOMissCapping float64
	SLOMissAmpere  float64
}

// Fig11Result is the full comparison plus the capping-activity statistics
// behind §4.3's "54.34 % of servers capped ~15 % of the time" analysis.
type Fig11Result struct {
	Rows []Fig11Row
	// CappedServerFracCapping is the fraction of server-intervals spent
	// capped in the capping-only scenario during the measured window;
	// CappedServerFracAmpere is the same under Ampere.
	CappedServerFracCapping float64
	CappedServerFracAmpere  float64
}

type fig11Scenario struct {
	p999    []float64
	sloMiss []float64
	capped  float64
}

// RunFig11 reproduces Fig 11: the 99.9th-percentile latency of the six
// redis-benchmark operations under power capping versus under Ampere.
func RunFig11(cfg Fig11Config) (*Fig11Result, error) {
	if cfg.ServiceServers <= 0 || cfg.ServiceServers > cfg.RowServers {
		return nil, fmt.Errorf("experiment: %d service servers on a %d-server row",
			cfg.ServiceServers, cfg.RowServers)
	}
	ops := scaledOpsBy(10) // see Fig11Config.RequestsPerSecond
	regimes := []string{"ampere", "capping"}
	runs, err := runUnits(regimes, func(i int) (*fig11Scenario, error) {
		s, err := runFig11Scenario(cfg, ops, i == 0)
		if err != nil {
			return nil, fmt.Errorf("%s scenario: %w", regimes[i], err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	withAmpere, withCapping := runs[0], runs[1]
	res := &Fig11Result{
		CappedServerFracCapping: withCapping.capped,
		CappedServerFracAmpere:  withAmpere.capped,
	}
	for i, op := range ops {
		res.Rows = append(res.Rows, Fig11Row{Op: op.Name,
			P999CappingUS: withCapping.p999[i], P999AmpereUS: withAmpere.p999[i],
			Inflation:      inflation(withCapping.p999[i], withAmpere.p999[i]),
			SLOMissCapping: withCapping.sloMiss[i], SLOMissAmpere: withAmpere.sloMiss[i]})
	}
	return res, nil
}

func runFig11Scenario(cfg Fig11Config, ops []service.Op, ampere bool) (*fig11Scenario, error) {
	// Centre the diurnal peak on the measured window: the comparison is
	// about behaviour while demand presses against the budget.
	peak := dayHour(float64((cfg.Warmup+cfg.Pretrain+cfg.Measure/2)/sim.Hour) + 0.5)
	ctrl, err := NewControlled(ControlledConfig{
		Seed:             cfg.Seed,
		RowServers:       cfg.RowServers,
		RestRows:         2,
		TargetPowerFrac:  cfg.BatchTargetFrac,
		RO:               cfg.RO,
		ScaleCtrlBudget:  true,
		DiurnalAmplitude: 0.3,
		PeakHour:         peak,
	})
	if err != nil {
		return nil, err
	}
	rig := ctrl.Rig
	row := rig.Cluster.Row(0)

	// Pin the service instances, spread evenly across the row.
	stride := cfg.RowServers / cfg.ServiceServers
	var hosts []*cluster.Server
	for i := 0; i < cfg.ServiceServers; i++ {
		sv := row[i*stride]
		if err := rig.Sched.Reserve(sv.ID, cfg.ServiceContainers, float64(cfg.ServiceContainers)); err != nil {
			return nil, err
		}
		hosts = append(hosts, sv)
	}
	// One steady class offering RequestsPerSecond to each instance; its name
	// keys the class's RNG stream.
	svcCfg := service.Config{
		Classes: []service.Class{{Name: "default", Kind: service.Steady,
			Users: len(hosts), RPSPerUser: cfg.RequestsPerSecond}},
		Ops:    ops,
		Window: 10 * sim.Second,
	}
	svc, err := service.New(rig.Eng, cfg.Seed, svcCfg, hosts)
	if err != nil {
		return nil, err
	}

	var capper *capping.Capper
	if _, err := ctrl.Run(cfg.Day, func() (err error) {
		if capper, err = ctrl.RowCapper(capping.DefaultConfig()); err != nil {
			return err
		}
		if ampere {
			// Et trains on the row's own pretrain history.
			if _, err := ctrl.Ampere(cfg.Day, true, core.DefaultConfig()); err != nil {
				return err
			}
		}
		capper.Start()
		svc.Start()
		return nil
	}); err != nil {
		return nil, err
	}

	out := &fig11Scenario{}
	for i := range ops {
		if svc.Served(i) == 0 {
			return nil, fmt.Errorf("experiment: op %s served no requests", ops[i].Name)
		}
		out.p999 = append(out.p999, svc.LatencyQuantileUS(i, 0.999))
		out.sloMiss = append(out.sloMiss, svc.SLOMissRate(i))
	}
	st := capper.Stats(0)
	if st.ServerSamples > 0 {
		out.capped = float64(st.CappedServerSamples) / float64(st.ServerSamples)
	}
	return out, nil
}
