// Weak-scaling benchmarks for the simulation substrate: the same
// 400-server paper row replicated 1× / 25× / 250× (400, 10k, 100k servers).
// The contract under test is that per-server cost stays flat as the fleet
// grows — a sweep is O(servers) with zero allocations, a placement is
// O(rows) not O(servers), and a controller tick is O(servers) dominated by
// reading each domain's samples. `make bench-scale` records the baseline to
// BENCH_scale.json; the 400-server sub-benchmarks, and the sweep at 100k
// servers, run in tier1 as a smoke check of the allocation contracts.
package repro_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federate"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// scalePoints are the weak-scaling fleet sizes: rows of the default
// 400-server paper row.
var scalePoints = []struct {
	name string
	rows int
}{
	{"servers=400", 1},
	{"servers=10000", 25},
	{"servers=100000", 250},
	{"servers=1000000", 2500},
}

func scaleSpec(rows int) cluster.Spec {
	sp := cluster.DefaultSpec() // 20 racks × 20 servers = one 400-server row
	sp.Rows = rows
	return sp
}

func scaleCluster(b *testing.B, rows int) *cluster.Cluster {
	b.Helper()
	c, err := cluster.New(scaleSpec(rows), 1)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkScaleSweep measures one monitor sweep over the whole fleet.
// store=tsdb is the deployed configuration (row + rack series appended per
// sweep as one TSDB frame row); store=none isolates the sampling and
// incremental-aggregation path and additionally pins the scale contracts:
// zero allocations per sweep (no per-sweep series names, no per-row scratch)
// and allocation-free O(1) RowPower reads.
func BenchmarkScaleSweep(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(pt.name+"/store=tsdb", func(b *testing.B) {
			eng := sim.NewEngine()
			c := scaleCluster(b, pt.rows)
			const retention = 64
			m, err := monitor.New(eng, c, tsdb.New(retention), monitor.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			now := sim.Time(0)
			sweep := func() {
				now = now.Add(sim.Minute)
				m.Sweep(now)
			}
			// Warm the frame past retention so the TSDB's ring has wrapped:
			// from then on each append overwrites the oldest row and the
			// sweep allocates nothing. Measured from an empty store, the
			// store's growth would amortize into the figure as allocs/op.
			for i := 0; i < 2*retention+2; i++ {
				sweep()
			}
			if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
				b.Fatalf("steady-state tsdb sweep allocates %.1f objects per run at %s, want 0", allocs, pt.name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.Servers)), "ns/server")
		})
		b.Run(pt.name+"/store=none", func(b *testing.B) {
			eng := sim.NewEngine()
			c := scaleCluster(b, pt.rows)
			m, err := monitor.New(eng, c, nil, monitor.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			now := sim.Time(0)
			if allocs := testing.AllocsPerRun(5, func() {
				now = now.Add(sim.Minute)
				m.Sweep(now)
			}); allocs != 0 {
				b.Fatalf("Sweep allocates %.1f objects per run at %s, want 0", allocs, pt.name)
			}
			if allocs := testing.AllocsPerRun(5, func() {
				for r := 0; r < c.Rows(); r++ {
					m.RowPower(r)
				}
			}); allocs != 0 {
				b.Fatalf("RowPower allocates %.1f objects per run at %s, want 0", allocs, pt.name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(sim.Minute)
				m.Sweep(now)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.Servers)), "ns/server")
		})
	}
}

// BenchmarkScalePlacement measures one job submission end to end. The row
// choice scans every row's cached fit count, O(rows), but the scan is a small
// part of a placement: 7 % of dc100k_storm's CPU at 250 rows. What makes
// ns/op grow with the fleet is that the job's server, its run list and its
// event records are cache-cold at 100k servers and warm at 400.
func BenchmarkScalePlacement(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(pt.name, func(b *testing.B) {
			eng := sim.NewEngine()
			c := scaleCluster(b, pt.rows)
			s := scheduler.New(eng, c, 1, nil)
			dd := workload.DefaultDurations()
			r := sim.NewRNG(2)
			// Drain often enough that even the 400-server fleet never
			// saturates within one drain interval.
			drainEvery := 256 * pt.rows
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Submit(&workload.Job{
					ID: int64(i), Product: -1,
					Work: dd.Sample(r), CPU: 1,
				})
				if i%drainEvery == drainEvery-1 {
					eng.RunUntil(eng.Now().Add(20 * sim.Minute))
				}
			}
		})
	}
}

// benchControllerTick measures one control step across per-row domains. A
// tick reads every server's latest sample through the power reader, so
// ns/server is the weak-scaling figure of merit. Each domain's online Et
// estimator is pre-trained to its steady state — every hour-of-day bin filled
// to the window with the zero deltas the bench's static load produces; a
// simulated day of live warmup (1500 ticks) would run ~45 s at 1M servers. A
// short live warmup then grows the per-domain ranking and candidate scratch,
// after which a steady-state tick must stay under the allocation ceiling
// (DESIGN.md §8).
func benchControllerTick(b *testing.B, rows int) {
	const steadyAllocCeiling = 10
	eng := sim.NewEngine()
	sp := scaleSpec(rows)
	c, err := cluster.New(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := scheduler.New(eng, c, 1, nil)
	mon := newBenchMonitor(eng, c)
	budget := sp.RowRatedPowerW() / 1.25
	cfg := core.DefaultConfig()
	cfg.EtWindow = 60 // one hour of 1-minute samples per hour-of-day bin
	domains := make([]core.Domain, sp.Rows)
	for r := 0; r < sp.Rows; r++ {
		for _, sv := range c.Row(r) {
			sv.Allocate(8+int(sv.ID)%8, float64(8+int(sv.ID)%8))
		}
		et, err := core.NewWindowedHourlyEt(cfg.EtPercentile, 0.05, 30, cfg.EtWindow) // the controller's own Et default and sample gate
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < 24*60; t++ {
			et.Add(sim.Time(t)*sim.Time(sim.Minute), 0)
		}
		domains[r] = core.Domain{
			Name: monitor.SeriesRow(r), Servers: c.RowIDs(r),
			BudgetW: budget, Kr: stack.DefaultKr, Et: et,
		}
	}
	ctl, err := core.New(eng, mon, s, cfg, domains)
	if err != nil {
		b.Fatal(err)
	}
	mon.Sweep(0)
	tick := 0
	step := func() {
		ctl.Step(sim.Time(tick) * sim.Time(sim.Minute))
		tick++
	}
	for tick < 90 {
		step()
	}
	if allocs := testing.AllocsPerRun(10, step); allocs > steadyAllocCeiling {
		b.Fatalf("steady-state controller tick allocates %.1f objects, ceiling %d",
			allocs, steadyAllocCeiling)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.Servers)), "ns/server")
}

// BenchmarkScaleControllerTick runs each fleet size; the sub-benchmark names
// are the keys bench_compare joins against the recorded baseline.
func BenchmarkScaleControllerTick(b *testing.B) {
	for _, pt := range scalePoints {
		pt := pt
		b.Run(pt.name, func(b *testing.B) { benchControllerTick(b, pt.rows) })
	}
}

// BenchmarkScaleFederatedEpoch measures one full lockstep epoch of a small
// follow-the-sun federation — per-DC engine advance (workload + monitor),
// the federated controller tick, telemetry, and any coordinator
// reallocation. This is the whole-substrate figure for the two-level path;
// the 1M-server federated tick itself is bounded by the single-DC
// ControllerTick rows above (8 × the 125k-server tick, shard-parallel).
func BenchmarkScaleFederatedEpoch(b *testing.B) {
	dcs, err := federate.Family("follow-the-sun", 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := federate.New(federate.Config{Seed: 1031, DCs: dcs, Workers: 2, Retention: 64})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Advance(10); err != nil {
		b.Fatal(err)
	}
	b.Run("servers=1600", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.Advance(1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.Servers()), "ns/server")
	})
}
