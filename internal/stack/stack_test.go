package stack

import (
	"go/build"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The package must stay a leaf: federate once carried private copies of the
// calibration because the only assembled stack lived in a package that
// imported it. Anything beyond the six wired layers would let that cycle
// come back.
func TestLeafImports(t *testing.T) {
	allowed := map[string]bool{
		"repro/internal/sim":       true,
		"repro/internal/cluster":   true,
		"repro/internal/scheduler": true,
		"repro/internal/tsdb":      true,
		"repro/internal/monitor":   true,
		"repro/internal/workload":  true,
	}
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if strings.HasPrefix(imp, "repro/") && !allowed[imp] {
			t.Errorf("internal/stack imports %s; it may import only the six layers it wires", imp)
		}
	}
}

func TestNewWiresThePipeline(t *testing.T) {
	spec := RowSpec(2, 40)
	prod := workload.DefaultProduct("a", JobsPerMinute(spec, 0.7, spec.TotalServers()))
	weights := [][]float64{{1, 0}}
	st, err := New(Config{Seed: 3, Cluster: spec, Products: []workload.Product{prod}, ProductWeights: weights})
	if err != nil {
		t.Fatal(err)
	}
	if st.Seed != 3 || st.Cluster.Spec != spec {
		t.Errorf("seed %d spec %+v not carried through", st.Seed, st.Cluster.Spec)
	}
	// Nothing runs until StartBase.
	if err := st.Run(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if st.Gen.Generated() != 0 || st.DB.PointCount() != 0 {
		t.Fatalf("unstarted stack generated %d jobs, %d points", st.Gen.Generated(), st.DB.PointCount())
	}
	st.StartBase()
	if err := st.Run(sim.Time(30 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	// Generator → scheduler → servers.
	stats := st.Sched.Stats()
	if st.Gen.Generated() == 0 || stats.Placed == 0 {
		t.Fatalf("generated %d placed %d", st.Gen.Generated(), stats.Placed)
	}
	// The row-affinity vector reached the scheduler: row 1 stays idle.
	for _, sv := range st.Cluster.Row(1) {
		if sv.Busy() != 0 {
			t.Fatalf("server %d on the zero-weight row is busy", sv.ID)
		}
	}
	// Servers → monitor → TSDB: one sample per minute per row.
	if _, ok := st.Mon.RowPower(0); !ok {
		t.Error("monitor has no row/0 sample")
	}
	if n := len(st.DB.Values(monitor.SeriesRow(0), 0, st.Eng.Now())); n < 25 {
		t.Errorf("TSDB holds %d row/0 samples after 25 minutes", n)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	noRows := cluster.DefaultSpec()
	noRows.Rows = 0
	prods := []workload.Product{workload.DefaultProduct("a", 1)}
	// weights is a config of four rows whose one product has the given row
	// weights. Before the weights were checked, NaN and +Inf in row 0 sent
	// every job to row 3, and −1 starved row 1.
	weights := func(w ...float64) Config {
		return Config{Cluster: RowSpec(4, 40), Products: prods, ProductWeights: [][]float64{nil, w}}
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"zero-row cluster", Config{Cluster: noRows, Products: prods}},
		{"no products", Config{Cluster: RowSpec(1, 20)}},
		{"drop rate 2", Config{Cluster: RowSpec(1, 20), MonitorDropRate: 2, Products: prods}},
		{"NaN row weight", weights(math.NaN(), 1, 1, 1)},
		{"+Inf row weight", weights(math.Inf(1), 1, 1, 1)},
		{"-Inf row weight", weights(1, 1, math.Inf(-1), 1)},
		{"negative row weight", weights(-1, 1, 1, 1)},
	} {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := New(weights(0, 1, 0.5, 2)); err != nil {
		t.Errorf("finite non-negative row weights refused: %v", err)
	}
}

func TestRowSpec(t *testing.T) {
	spec := RowSpec(3, 160)
	if spec.Rows != 3 || spec.ServersPerRow() != 160 || spec.TotalServers() != 480 {
		t.Errorf("RowSpec(3,160) = %d rows × %d", spec.Rows, spec.ServersPerRow())
	}
	def := cluster.DefaultSpec()
	def.Rows, def.RacksPerRow = 3, 8
	if spec != def {
		t.Errorf("RowSpec departs from DefaultSpec beyond the layout: %+v", spec)
	}
}

func TestMeanJobMinutes(t *testing.T) {
	m := MeanJobMinutes()
	// Below the analytic untruncated mean of 9, well above the median.
	if m < 7.5 || m > 9.0 {
		t.Errorf("truncated mean %.2f, want in [7.5, 9.0]", m)
	}
	if m >= workload.DefaultDurations().Mean() {
		t.Errorf("truncated mean %.3f not below the untruncated %.3f", m, workload.DefaultDurations().Mean())
	}
	// Deterministic: fixed seed, computed once.
	if m2 := MeanJobMinutes(); m2 != m {
		t.Errorf("not deterministic: %v vs %v", m, m2)
	}
}

func TestJobsPerMinute(t *testing.T) {
	spec := RowSpec(1, 400)
	want := workload.RateForPowerFraction(0.75, spec.IdlePowerW, spec.RatedPowerW,
		spec.Containers, MeanJobMinutes(), 1.0) * 400
	if got := JobsPerMinute(spec, 0.75, 400); got != want {
		t.Errorf("JobsPerMinute = %v, want %v", got, want)
	}
	if got := JobsPerMinute(spec, spec.IdlePowerW/spec.RatedPowerW-0.01, 400); got != 0 {
		t.Errorf("target below idle gives %v jobs/min, want 0", got)
	}
	if a, b := JobsPerMinute(spec, 0.75, 400), JobsPerMinute(spec, 0.75, 800); b != 2*a {
		t.Errorf("rate not linear in servers: %v vs %v", a, b)
	}
}

// The per-job path — generator tick, arrival event, placement, completion
// event, completion — allocates nothing once the slabs have reached their
// high-water mark. The allowance is for a slab growing by a page when a
// minute sets a new mark.
func TestWarmStackDoesNotAllocatePerJob(t *testing.T) {
	spec := RowSpec(1, 400)
	prod := workload.DefaultProduct("batch", JobsPerMinute(spec, 0.74, spec.TotalServers()))
	prod.SurgeProb = 0 // a surge is a new high-water mark by design
	st, err := New(Config{Seed: 1, Cluster: spec, Products: []workload.Product{prod}, Retention: 64})
	if err != nil {
		t.Fatal(err)
	}
	st.StartBase()
	now := sim.Time(4 * sim.Hour) // twice the longest job, and the TSDB rings have wrapped
	if err := st.Run(now); err != nil {
		t.Fatal(err)
	}
	const minutes = 20
	submitted := st.Sched.Stats().Submitted
	perMinute := testing.AllocsPerRun(minutes, func() {
		now = now.Add(sim.Minute)
		if err := st.Run(now); err != nil {
			t.Fatal(err)
		}
	})
	jobs := float64(st.Sched.Stats().Submitted-submitted) / (minutes + 1) // AllocsPerRun warms up with one run
	if jobs < 200 {
		t.Fatalf("only %.0f jobs a minute: the stack is not at target load", jobs)
	}
	if perMinute > 0.02*jobs {
		t.Errorf("%.1f allocations per simulated minute of %.0f jobs (%.3f per job), want at most 0.02 per job",
			perMinute, jobs, perMinute/jobs)
	}
}

// What one server costs a control plane at rest: its record in the cluster's
// slab, its scheduler index entries, and its share of the monitor's series
// after the first sweep (rack and row series; the servers themselves are
// summed, not stored). 165.5 B when the fleet became one slab of 104-byte
// records; 367.6 B before, when a server was four heap objects and carried
// its own listener slice. 151.9 B since the record is 80 bytes and the
// monitor's sweep state a 24-byte column entry beside it. The bound sits
// 5 % above that, so a new per-server field cannot land unnoticed.
func TestFleetBytesPerServer(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	spec := RowSpec(50, 400)
	before := heap()
	st, err := New(Config{Seed: 1, Cluster: spec, Products: []workload.Product{workload.DefaultProduct("idle", 0)}, Retention: 64})
	if err != nil {
		t.Fatal(err)
	}
	st.Mon.Sweep(0)
	perServer := float64(heap()-before) / float64(spec.TotalServers())
	runtime.KeepAlive(st)
	t.Logf("%.1f heap bytes per server", perServer)
	if perServer > 160 {
		t.Errorf("one server of an assembled stack holds %.1f heap bytes after a sweep, want at most 160", perServer)
	}
}

// The whole-stack twin of monitor's TestSweepIdenticalAtAnyGOMAXPROCS: at 250
// rows the monitor samples on several goroutines when GOMAXPROCS allows, and
// a run with live load ends in the same scheduler counters, the same monitor
// snapshot and the same per-server state as it does on one.
func TestRunIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		sched   scheduler.Stats
		mon     monitor.State
		servers []cluster.ServerState
	}
	run := func(procs int) outcome {
		runtime.GOMAXPROCS(procs)
		spec := RowSpec(250, 400)
		spec.RatedJitterFrac = 0.05
		prod := workload.DefaultProduct("batch", JobsPerMinute(spec, 0.74, spec.TotalServers()))
		st, err := New(Config{Seed: 3, Cluster: spec, Products: []workload.Product{prod}, Retention: 8})
		if err != nil {
			t.Fatal(err)
		}
		st.StartBase()
		if err := st.Run(sim.Time(4 * sim.Minute)); err != nil {
			t.Fatal(err)
		}
		return outcome{st.Sched.Stats(), st.Mon.ExportState(), st.Cluster.ExportState()}
	}
	want, got := run(1), run(4)
	if want.sched.Placed == 0 || want.mon.Sweeps != 5 {
		t.Fatalf("the run placed %d jobs and swept %d times", want.sched.Placed, want.mon.Sweeps)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scheduler stats, monitor state or server state at GOMAXPROCS 4 differ from GOMAXPROCS 1 (stats %+v vs %+v)",
			got.sched, want.sched)
	}
}
