package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/capping"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Fig11Scale scales the §4.3 capping-vs-Ampere latency comparison to the
// paper's deployment size: a 100k-server fleet where a block of "service
// rows" hosts a millions-of-users interactive service (client classes with
// steady, diurnal and flash-crowd arrival processes — see service.Class)
// alongside a hot batch product, pressing each service row past its PDU
// budget, while the remaining rows are cooler absorbers with headroom.
//
// Under DVFS capping the hot rows ride at their budget with every server
// slowed, so request service times stretch and queues build — worst exactly
// when a flash crowd lands on the diurnal peak. Under Ampere the controller
// freezes batch-heavy servers on the hot rows and the scheduler displaces
// their jobs onto the absorbers (§4.1.2), so the service instances keep
// full frequency; the capper stays wired underneath as the rarely-triggered
// safety net, its budget following the controller's via SetBudget.
type Fig11ScaleConfig struct {
	Seed       uint64
	Rows       int
	RowServers int
	// ServiceRows is the number of hot rows hosting service instances; the
	// remaining Rows−ServiceRows rows are absorbers and must exist (frozen
	// hot-row load needs somewhere to displace).
	ServiceRows int
	// ServicePerRow instances are pinned per hot row, spread at even stride;
	// each reserves ServiceContainers scheduler containers on its host.
	ServicePerRow     int
	ServiceContainers int
	// ServiceUsers and RPSPerUser parameterize the three default client
	// classes (service.DefaultClasses): aggregate base rate is their product.
	ServiceUsers int
	RPSPerUser   float64
	// OpScale multiplies the redis-benchmark service times (and SLOs), so
	// the same per-instance utilization needs proportionally fewer simulated
	// requests; Fig 11 reports relative inflation, so the scale cancels.
	OpScale float64
	// HotBatchFrac is the batch-only power fraction the hot product sustains
	// on the service rows (their total adds the pinned reservations on top);
	// BaseBatchFrac is the absorbers' batch power fraction, low enough to
	// leave displacement headroom under the same budget.
	HotBatchFrac  float64
	BaseBatchFrac float64
	// BudgetFrac sets every row's budget as a fraction of the row rating.
	BudgetFrac float64
	// DiurnalAmplitude swings the hot product's arrival rate; the peak is
	// centred on the measure window (the diurnal service class follows it).
	DiurnalAmplitude float64
	// MaxFreezeRatio loosens the paper's operational 0.5: with the service
	// reservations pinned, draining a deeply over-budget hot row can need
	// more than half its servers frozen.
	MaxFreezeRatio float64
	// Warmup precedes the measured window; Measure, which must be
	// positive, is its length.
	Warmup  sim.Duration
	Measure sim.Duration
	// Parallel is the two regimes' runner.Options.Workers (<= 0 is
	// GOMAXPROCS); it does not change output (DESIGN.md §7).
	Parallel int
}

// DefaultFig11Scale is the full-scale configuration: 250 rows × 400 servers
// (100k), 50 hot rows carrying 2 000 pinned instances serving 3 million
// simulated users (~117k req/s aggregate, ρ ≈ 0.4 per instance at full
// speed).
func DefaultFig11Scale() Fig11ScaleConfig {
	return Fig11ScaleConfig{
		Seed:              11,
		Rows:              250,
		RowServers:        400,
		ServiceRows:       50,
		ServicePerRow:     40,
		ServiceContainers: 16,
		ServiceUsers:      3_000_000,
		RPSPerUser:        0.039,
		OpScale:           40,
		HotBatchFrac:      0.832,
		BaseBatchFrac:     0.70,
		BudgetFrac:        0.78,
		DiurnalAmplitude:  0.08,
		MaxFreezeRatio:    0.7,
		Warmup:            40 * sim.Minute,
		Measure:           60 * sim.Minute,
	}
}

// Fig11ScaleClassRow is one client class's outcome across the two regimes.
type Fig11ScaleClassRow struct {
	Class          string
	P999CappingUS  float64
	P999AmpereUS   float64
	Inflation      float64
	SLOMissCapping float64
	SLOMissAmpere  float64
}

// Fig11ScaleResult is the scaled comparison: per-operation rows (same shape
// as Fig 11), per-class rows, and the aggregate tail/SLO headline.
type Fig11ScaleResult struct {
	Ops     []Fig11Row
	Classes []Fig11ScaleClassRow
	// Aggregate 99.9th percentile over every class and operation.
	AggP999CappingUS float64
	AggP999AmpereUS  float64
	AggInflation     float64
	// Total SLO-miss fractions over every class and operation.
	SLOMissCapping float64
	SLOMissAmpere  float64
	// Capped server-interval fractions on the hot rows during the measure
	// window.
	CappedServerFracCapping float64
	CappedServerFracAmpere  float64
	// FrozenServerMinutes integrates Ampere's frozen count over the measure
	// window (the capacity cost of protecting the tail).
	FrozenServerMinutes int64
	ServedCapping       int64
	ServedAmpere        int64
}

type fig11ScaleScenario struct {
	opP999    []float64
	opMiss    []float64
	classes   []string
	classP999 []float64
	classMiss []float64
	aggP999   float64
	totalMiss float64
	capped    float64
	frozenMin int64
	served    int64
}

// RunFig11Scale faces the capping and Ampere regimes against the identical
// fleet, batch demand and client traffic.
func RunFig11Scale(cfg Fig11ScaleConfig) (*Fig11ScaleResult, error) {
	if cfg.ServiceRows < 1 || cfg.ServiceRows >= cfg.Rows {
		return nil, fmt.Errorf("experiment: %d service rows of %d total (absorber rows required)",
			cfg.ServiceRows, cfg.Rows)
	}
	if cfg.BudgetFrac <= 0 || cfg.BudgetFrac > 1 {
		return nil, fmt.Errorf("experiment: budget fraction %v outside (0,1]", cfg.BudgetFrac)
	}
	if !(cfg.OpScale > 0) {
		return nil, fmt.Errorf("experiment: operation scale %v must be positive", cfg.OpScale)
	}
	if cfg.Warmup < 0 || cfg.Measure <= 0 {
		return nil, fmt.Errorf("experiment: warm-up %v and measure %v, need a non-negative warm-up and a positive window",
			cfg.Warmup, cfg.Measure)
	}
	scens, err := runner.Run([]runner.Unit[*fig11ScaleScenario]{
		{Name: "capping", Run: func() (*fig11ScaleScenario, error) { return runFig11ScaleScenario(cfg, false) }},
		{Name: "ampere", Run: func() (*fig11ScaleScenario, error) { return runFig11ScaleScenario(cfg, true) }},
	}, runner.Options{Workers: cfg.Parallel})
	if err != nil {
		return nil, err
	}
	capOnly, amp := scens[0], scens[1]
	res := &Fig11ScaleResult{
		AggP999CappingUS:        capOnly.aggP999,
		AggP999AmpereUS:         amp.aggP999,
		SLOMissCapping:          capOnly.totalMiss,
		SLOMissAmpere:           amp.totalMiss,
		CappedServerFracCapping: capOnly.capped,
		CappedServerFracAmpere:  amp.capped,
		FrozenServerMinutes:     amp.frozenMin,
		ServedCapping:           capOnly.served,
		ServedAmpere:            amp.served,
	}
	res.AggInflation = inflation(res.AggP999CappingUS, res.AggP999AmpereUS)
	for i, op := range scaledOpsBy(cfg.OpScale) {
		res.Ops = append(res.Ops, Fig11Row{Op: op.Name,
			P999CappingUS: capOnly.opP999[i], P999AmpereUS: amp.opP999[i],
			Inflation:      inflation(capOnly.opP999[i], amp.opP999[i]),
			SLOMissCapping: capOnly.opMiss[i], SLOMissAmpere: amp.opMiss[i]})
	}
	for c, name := range capOnly.classes {
		res.Classes = append(res.Classes, Fig11ScaleClassRow{Class: name,
			P999CappingUS: capOnly.classP999[c], P999AmpereUS: amp.classP999[c],
			Inflation:      inflation(capOnly.classP999[c], amp.classP999[c]),
			SLOMissCapping: capOnly.classMiss[c], SLOMissAmpere: amp.classMiss[c]})
	}
	return res, nil
}

// inflation is the capping tail over the Ampere one, 0 without an Ampere
// tail.
func inflation(capping, ampere float64) float64 {
	if ampere > 0 {
		return capping / ampere
	}
	return 0
}

// scaledOpsBy returns the Fig 11 operation set with service times and SLOs
// scaled ×k.
func scaledOpsBy(k float64) []service.Op {
	ops := service.DefaultOps()
	for i := range ops {
		ops[i].BaseServiceUS *= k
		ops[i].SLOUS *= k
	}
	return ops
}

func runFig11ScaleScenario(cfg Fig11ScaleConfig, ampere bool) (*fig11ScaleScenario, error) {
	warmup, measure := cfg.Warmup, cfg.Measure
	// Centre the diurnal peak (batch and service alike) on the measure
	// window: the comparison is about behaviour while demand presses
	// hardest against the budget.
	peak := float64(warmup+measure/2) / float64(sim.Hour)
	for peak >= 24 {
		peak -= 24
	}

	spec := stack.RowSpec(cfg.Rows, cfg.RowServers)
	hot := workload.DefaultProduct("svc-batch",
		stack.JobsPerMinute(spec, cfg.HotBatchFrac, cfg.ServiceRows*cfg.RowServers))
	hot.DiurnalAmplitude = cfg.DiurnalAmplitude
	hot.PeakHour = peak
	hot.SurgeProb = 0
	base := workload.DefaultProduct("base",
		stack.JobsPerMinute(spec, cfg.BaseBatchFrac, (cfg.Rows-cfg.ServiceRows)*cfg.RowServers))
	// Hold the absorbers steady: their role is guaranteed headroom.
	base.DiurnalAmplitude = 0
	base.SurgeProb = 0

	// Row affinity: the hot product prefers the service rows (overflowing to
	// the absorbers only when those rows cannot fit a job — which is exactly
	// what freezing causes); the base product stays off the service rows.
	hotW := make([]float64, cfg.Rows)
	baseW := make([]float64, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		if r < cfg.ServiceRows {
			hotW[r] = 1
		} else {
			baseW[r] = 1
		}
	}

	classes := service.DefaultClasses(cfg.ServiceUsers, cfg.RPSPerUser)
	for i := range classes {
		if classes[i].Kind == service.Diurnal {
			classes[i].PeakHour = peak
		}
	}
	// The service instances are pinned across the hot rows at even stride.
	// The capper guards every hot row in both regimes: the baseline in the
	// capping regime, the safety net in the Ampere one, where it follows
	// the budget the controller enforces.
	f := &fleet.Fleet{
		Stack: stack.Config{Seed: cfg.Seed, Cluster: spec,
			Products: []workload.Product{hot, base}, ProductWeights: [][]float64{hotW, baseW}},
		RowBudgetW: spec.RowRatedPowerW() * cfg.BudgetFrac,
		RowName:    "row%d",
		Capping:    &fleet.Capping{Rows: cfg.ServiceRows, Config: capping.Config{Interval: capperInterval}},
		Service: &fleet.Service{Rows: cfg.ServiceRows, Instances: cfg.ServiceRows * cfg.ServicePerRow,
			Containers: cfg.ServiceContainers, Config: service.Config{
				Classes: classes,
				Ops:     scaledOpsBy(cfg.OpScale),
				Window:  10 * sim.Second,
			}},
	}
	if ampere {
		ccfg := core.DefaultConfig()
		if cfg.MaxFreezeRatio > 0 {
			ccfg.MaxFreezeRatio = cfg.MaxFreezeRatio
		}
		f.Control = &fleet.Control{Rows: cfg.ServiceRows, Margin: gridMargin, Kr: DefaultKr,
			Et: core.ConstantEt(0.03), Config: ccfg}
	}
	if err := f.Build(); err != nil {
		return nil, err
	}
	rig, ctl, capper, svc := f.Rig, f.Controller, f.Capper, f.Svc
	rig.StartBase()
	f.Start()
	if err := rig.Run(sim.Time(warmup)); err != nil {
		return nil, err
	}

	// Measure window: snapshot capper counters, start the client traffic,
	// and (under Ampere) integrate the frozen count per minute.
	preStats := make([]capping.Stats, cfg.ServiceRows)
	for r := range preStats {
		preStats[r] = capper.Stats(r)
	}
	out := &fig11ScaleScenario{}
	if ctl != nil {
		rig.Eng.Every(rig.Eng.Now(), sim.Minute, "fig11scale-frozen", func(sim.Time) {
			for r := 0; r < cfg.ServiceRows; r++ {
				out.frozenMin += int64(ctl.FrozenCount(r))
			}
		})
	}
	svc.Start()
	if err := rig.Run(sim.Time(warmup + measure)); err != nil {
		return nil, err
	}

	ops := svc.Ops()
	for i := range ops {
		if svc.Served(i) == 0 {
			return nil, fmt.Errorf("experiment: op %s served no requests", ops[i].Name)
		}
		out.opP999 = append(out.opP999, svc.LatencyQuantileUS(i, 0.999))
		out.opMiss = append(out.opMiss, svc.SLOMissRate(i))
	}
	for c, cl := range svc.Classes() {
		out.classes = append(out.classes, cl.Name)
		out.classP999 = append(out.classP999, svc.ClassLatencyQuantileUS(c, 0.999))
		out.classMiss = append(out.classMiss, svc.ClassSLOMissRate(c))
	}
	out.aggP999 = svc.AggregateLatencyQuantileUS(0.999)
	out.totalMiss = svc.TotalSLOMissRate()
	out.served = svc.TotalServed()
	var samples, cappedSamples int64
	for r := 0; r < cfg.ServiceRows; r++ {
		st := capper.Stats(r)
		samples += st.ServerSamples - preStats[r].ServerSamples
		cappedSamples += st.CappedServerSamples - preStats[r].CappedServerSamples
	}
	if samples > 0 {
		out.capped = float64(cappedSamples) / float64(samples)
	}
	return out, nil
}

// WriteCSV exports every per-op and per-class row with its SLO-miss columns
// (kind is "op" or "class"), plus an aggregate row.
func (res *Fig11ScaleResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "name", "p999_capping_us", "p999_ampere_us",
		"inflation", "slo_miss_capping", "slo_miss_ampere"}); err != nil {
		return err
	}
	rec := func(kind, name string, pc, pa, inf, mc, ma float64) []string {
		return []string{kind, name,
			strconv.FormatFloat(pc, 'g', 8, 64), strconv.FormatFloat(pa, 'g', 8, 64),
			strconv.FormatFloat(inf, 'g', 8, 64), strconv.FormatFloat(mc, 'g', 8, 64),
			strconv.FormatFloat(ma, 'g', 8, 64)}
	}
	for _, r := range res.Ops {
		if err := cw.Write(rec("op", r.Op, r.P999CappingUS, r.P999AmpereUS,
			r.Inflation, r.SLOMissCapping, r.SLOMissAmpere)); err != nil {
			return err
		}
	}
	for _, r := range res.Classes {
		if err := cw.Write(rec("class", r.Class, r.P999CappingUS, r.P999AmpereUS,
			r.Inflation, r.SLOMissCapping, r.SLOMissAmpere)); err != nil {
			return err
		}
	}
	if err := cw.Write(rec("aggregate", "all", res.AggP999CappingUS, res.AggP999AmpereUS,
		res.AggInflation, res.SLOMissCapping, res.SLOMissAmpere)); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// FormatFig11Scale renders the scaled comparison with SLO-miss columns; all
// output is deterministic at a fixed seed and independent of the worker count.
func FormatFig11Scale(w io.Writer, cfg Fig11ScaleConfig, res *Fig11ScaleResult) {
	fmt.Fprintf(w, "Fig 11 at scale: %d servers (%d hot rows of %d), %d instances, %d users\n",
		cfg.Rows*cfg.RowServers, cfg.ServiceRows, cfg.Rows, cfg.ServiceRows*cfg.ServicePerRow,
		cfg.ServiceUsers)
	fmt.Fprintf(w, "  %-12s %12s %12s %6s %10s %10s\n",
		"op", "p999-cap(µs)", "p999-amp(µs)", "ratio", "miss-cap%", "miss-amp%")
	for _, r := range res.Ops {
		fmt.Fprintf(w, "  %-12s %12.0f %12.0f %6.2f %10.3f %10.3f\n",
			r.Op, r.P999CappingUS, r.P999AmpereUS, r.Inflation,
			r.SLOMissCapping*100, r.SLOMissAmpere*100)
	}
	fmt.Fprintf(w, "  %-12s %12s %12s %6s %10s %10s\n",
		"class", "p999-cap(µs)", "p999-amp(µs)", "ratio", "miss-cap%", "miss-amp%")
	for _, r := range res.Classes {
		fmt.Fprintf(w, "  %-12s %12.0f %12.0f %6.2f %10.3f %10.3f\n",
			r.Class, r.P999CappingUS, r.P999AmpereUS, r.Inflation,
			r.SLOMissCapping*100, r.SLOMissAmpere*100)
	}
	fmt.Fprintf(w, "  aggregate p999: capping %.0f µs vs ampere %.0f µs (%.2f×); SLO miss %.3f%% vs %.3f%%\n",
		res.AggP999CappingUS, res.AggP999AmpereUS, res.AggInflation,
		res.SLOMissCapping*100, res.SLOMissAmpere*100)
	fmt.Fprintf(w, "  capped server-intervals: %.2f%% (capping) vs %.2f%% (ampere safety net); frozen server-minutes %d\n",
		res.CappedServerFracCapping*100, res.CappedServerFracAmpere*100, res.FrozenServerMinutes)
	fmt.Fprintf(w, "  served: %d (capping) vs %d (ampere)\n", res.ServedCapping, res.ServedAmpere)
}
