// Package repro_test is the benchmark harness: BenchmarkQuick regenerates
// every experiment of the catalogue (internal/experiment/catalog.go) at its
// -quick sizes, one sub-benchmark per -exp id, plus microbenchmarks of the
// hot substrate paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale experiment output (paper-sized rows and spans) comes from
// cmd/ampere-exp instead.
package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// BenchmarkQuick runs each catalogue experiment as `ampere-exp -quick -exp
// <id>` does, e.g. `go test -run '^$' -bench 'Quick/table3$' -benchtime 1x`.
func BenchmarkQuick(b *testing.B) {
	for _, e := range experiment.Catalog() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(io.Discard, true, 0, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the hot substrate paths.
// ---------------------------------------------------------------------------

func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var tick func(sim.Time)
	tick = func(now sim.Time) {
		n++
		if n < b.N {
			eng.After(sim.Millisecond, "tick", tick)
		}
	}
	eng.After(sim.Millisecond, "tick", tick)
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSchedulerPlacement(b *testing.B) {
	eng := sim.NewEngine()
	sp := cluster.DefaultSpec()
	sp.RacksPerRow = 20
	c, err := cluster.New(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := scheduler.New(eng, c, 1, nil)
	dd := workload.DefaultDurations()
	r := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(&workload.Job{
			ID: int64(i), Product: -1,
			Work: dd.Sample(r), CPU: 1,
		})
		if i%1024 == 0 {
			// Drain periodically so capacity never saturates.
			eng.RunUntil(eng.Now().Add(20 * sim.Minute))
		}
	}
}

// driftReader serves one domain whose samples drift every tick, as the
// monitor's sampled column does on a static fleet: each server draws its own
// base power plus AR(1) noise. The ticks are drawn up front, so a benchmark
// times the controller, not the draws; the last tick wraps to the first, a
// jump once per cycle.
type driftReader struct {
	ticks [][]float64 // per tick, indexed by ServerID
	tick  int
}

func newDriftReader(servers, ticks int) *driftReader {
	const phi, sigma = 0.9, 3.0 // AR(1) coefficient and innovation, W
	rng := sim.NewRNG(7)
	base := make([]float64, servers)
	noise := make([]float64, servers)
	for i := range base {
		base[i] = 150 + 100*rng.Float64()
	}
	r := &driftReader{ticks: make([][]float64, ticks)}
	for t := range r.ticks {
		vals := make([]float64, servers)
		for i := range vals {
			noise[i] = phi*noise[i] + sigma*rng.NormFloat64()
			vals[i] = base[i] + noise[i]
		}
		r.ticks[t] = vals
	}
	return r
}

func (r *driftReader) advance() { r.tick = (r.tick + 1) % len(r.ticks) }

func (r *driftReader) PowerSnapshot() ([]float64, bool) { return r.ticks[r.tick], true }

func (r *driftReader) GroupPower(ids []cluster.ServerID) (float64, bool) {
	total, vals := 0.0, r.ticks[r.tick]
	for _, id := range ids {
		total += vals[id]
	}
	return total, true
}

func (r *driftReader) RangePower(lo, hi cluster.ServerID) (float64, bool) {
	total := 0.0
	for _, v := range r.ticks[r.tick][lo : hi+1] {
		total += v
	}
	return total, true
}

func (r *driftReader) GroupSampleTime([]cluster.ServerID) (sim.Time, bool) { return 0, false }

// BenchmarkControllerStep times one controlled tick of one saturated
// 400-server row (the paper's row size) whose sampled powers drift every
// tick: the freeze target stays at MaxFreezeRatio·n while the boundary
// server moves, as on a cut row of the ctl1m_loop workload. One op is one
// domain-tick; ns/server divides it by the row's servers.
func BenchmarkControllerStep(b *testing.B) {
	const servers = 400
	eng := sim.NewEngine()
	sp := cluster.DefaultSpec()
	sp.RacksPerRow = servers / sp.ServersPerRack
	c, err := cluster.New(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := scheduler.New(eng, c, 1, nil)
	reader := newDriftReader(servers, 256)
	ids := make([]cluster.ServerID, servers)
	total := 0.0
	for i := range ids {
		ids[i] = cluster.ServerID(i)
		total += reader.ticks[0][i]
	}
	cfg := core.DefaultConfig()
	cfg.EtWindow = 60 // as the benchmark workloads run it: bounded Et bins
	ctl, err := core.New(eng, reader, s, cfg, []core.Domain{{
		// A budget 10 % under the row's draw keeps the row saturated.
		Name: "row", Servers: ids, BudgetW: total / 1.1, Kr: stack.DefaultKr,
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reader.advance()
		ctl.Step(sim.Time(i) * sim.Time(sim.Minute))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/servers, "ns/server")
}

func BenchmarkSolveSPCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.SolveSPCP(0.98, 0.03, 1.0, 0.012, 0.5)
	}
}

func BenchmarkSolvePCPExactHorizon60(b *testing.B) {
	e := make([]float64, 60)
	for i := range e {
		e[i] = 0.002 * float64(i%5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SolvePCPExact(0.95, e, 1.0, 0.012, 0.5)
	}
}

func BenchmarkTSDBAppend(b *testing.B) {
	db := tsdb.New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Append("row/0", sim.Time(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSDBQuery(b *testing.B) {
	db := tsdb.New(0)
	for i := 0; i < 100000; i++ {
		db.Append("row/0", sim.Time(i)*sim.Time(sim.Minute), float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Query("row/0", sim.Time(1000*sim.Minute), sim.Time(2000*sim.Minute))
	}
}

func BenchmarkWorkloadGeneratorDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		n := 0
		gen, err := workload.NewGenerator(eng, 1,
			[]workload.Product{workload.DefaultProduct("a", 500)},
			workload.DefaultDurations(), func(*workload.Job) { n++ })
		if err != nil {
			b.Fatal(err)
		}
		gen.Start()
		if err := eng.RunUntil(sim.Time(24 * sim.Hour)); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no jobs")
		}
	}
}

// BenchmarkMetricsScrape renders the exposition of a fully instrumented
// default-topology deployment (2 rows × 200 servers: controller, monitor,
// TSDB, scheduler, breakers, chaos injector). The ISSUE acceptance bound is
// < 1 ms per scrape.
func BenchmarkMetricsScrape(b *testing.B) {
	spec := stack.RowSpec(2, 200)
	rig, err := stack.New(stack.Config{
		Seed:    1,
		Cluster: spec,
		Products: []workload.Product{
			workload.DefaultProduct("mixed", stack.JobsPerMinute(spec, 0.75, spec.TotalServers()))},
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	journal := obs.NewJournal(0)
	rig.Mon.Instrument(reg)
	rig.DB.Instrument(reg)
	rig.Sched.Instrument(reg)
	rig.StartBase()
	budget := spec.RowRatedPowerW() / 1.25
	domains := make([]core.Domain, spec.Rows)
	for r := 0; r < spec.Rows; r++ {
		domains[r] = core.Domain{Name: fmt.Sprintf("row/%d", r), Servers: rig.Cluster.RowIDs(r),
			BudgetW: budget, Kr: stack.DefaultKr}
	}
	ctl, err := core.New(rig.Eng, rig.Mon, rig.Sched, core.DefaultConfig(), domains)
	if err != nil {
		b.Fatal(err)
	}
	ctl.Instrument(reg, journal)
	ctl.Start()
	if err := rig.Run(sim.Time(30 * sim.Minute)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppend measures the per-tick cost of the decision journal
// once the ring is full (steady state: overwrite, no allocation).
func BenchmarkJournalAppend(b *testing.B) {
	j := obs.NewJournal(0)
	ev := obs.Event{
		SimMS: 60000, SimTime: "d0 00:01:00.000", Domain: "row/0",
		PowerW: 38000, PNorm: 0.95, Et: 0.05, Action: "hold",
		TargetFrozen: 12, Frozen: 12, Health: "ok",
	}
	for i := 0; i < j.Cap(); i++ {
		j.Append(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Append(ev)
	}
}
