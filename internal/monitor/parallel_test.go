package monitor

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

// mixedFleet builds rows × 400 servers with measurement noise and rated
// jitter on and a deterministic mix of loaded, capped, frozen and failed
// servers, so a sweep exercises every branch of SamplePower.
func mixedFleet(t *testing.T, rows int) *cluster.Cluster {
	t.Helper()
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RatedJitterFrac = rows, 0.05
	c, err := cluster.New(sp, 11)
	if err != nil {
		t.Fatal(err)
	}
	for id, sv := range c.Servers {
		n := id % (sp.Containers + 1)
		sv.Allocate(n, float64(n)*0.9)
		sv.SetFrozen(id%5 == 0)
		if id%7 == 0 {
			sv.ApplyCap(180)
		}
		sv.SetFailed(id%11 == 0)
	}
	return c
}

// A 100k-server fleet is three shares, so at GOMAXPROCS 2, 3 and 8 the sample
// phase runs on two or three goroutines. Whatever they number, five sweeps
// leave the same snapshot, the same history and — for a store that sees
// writes by name — the same calls in the same order as one goroutine does.
func TestSweepIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const rows, sweeps = 250, 5
	for _, byName := range []bool{false, true} {
		type outcome struct {
			state   State
			history [][]tsdb.Point
			calls   []appendCall
		}
		run := func(procs int) outcome {
			runtime.GOMAXPROCS(procs)
			c := mixedFleet(t, rows)
			db := tsdb.New(8)
			m, err := New(sim.NewEngine(), c, db, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got := m.sweepWidth(); got != min(procs, 3) {
				t.Fatalf("%d servers sweep on %d goroutines at GOMAXPROCS %d", len(c.Servers), got, procs)
			}
			var rec *byNameStore
			if byName {
				// The other sub-case writes each sweep as one frame row.
				rec = &byNameStore{db: db}
				m.SetStore(rec)
			}
			for i := 0; i < sweeps; i++ {
				m.Sweep(sim.Time(i) * sim.Time(sim.Minute))
			}
			out := outcome{state: m.ExportState()}
			if rec != nil {
				out.calls = rec.calls
			}
			names := append([]string{SeriesDC}, m.rowNames...)
			for _, name := range append(names, m.rackNames...) {
				pts := db.Query(name, 0, sim.Time(sweeps)*sim.Time(sim.Minute))
				if len(pts) != sweeps {
					t.Fatalf("GOMAXPROCS %d: series %s holds %d points, want %d", procs, name, len(pts), sweeps)
				}
				out.history = append(out.history, pts)
			}
			return out
		}
		want := run(1)
		if byName && len(want.calls) != sweeps*(rows*21+1) {
			t.Fatalf("the store saw %d appends", len(want.calls))
		}
		for _, procs := range []int{2, 3, 8} {
			got := run(procs)
			if !reflect.DeepEqual(got.state, want.state) {
				t.Errorf("by name %v: snapshot at GOMAXPROCS %d differs from GOMAXPROCS 1", byName, procs)
			}
			if !reflect.DeepEqual(got.history, want.history) {
				t.Errorf("by name %v: dc / row / rack history at GOMAXPROCS %d differs from GOMAXPROCS 1", byName, procs)
			}
			if !slices.Equal(got.calls, want.calls) {
				t.Errorf("by name %v: the store's call sequence at GOMAXPROCS %d differs from GOMAXPROCS 1", byName, procs)
			}
		}
	}
}

// sweepMallocs is testing.AllocsPerRun without its GOMAXPROCS(1), under which
// a sweep would take the inline path: after one warm-up call, the fewest heap
// objects allocated during any one of runs calls. The count is process-wide
// and the runtime allocates now and then (GC workers starting on the Ps
// GOMAXPROCS just added), so runs is large; what the sweep itself allocates
// shows every time.
func sweepMallocs(runs int, f func()) uint64 {
	f()
	fewest := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// The parallel sample phase keeps the sweep's contracts: no allocation in
// steady state (the loop body is a method value bound at construction), and
// no goroutine started by a warm sweep — the helpers are the pool's, parked
// between sweeps.
func TestParallelSweepAllocatesAndParksNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const retention = 64
	for _, withDB := range []bool{false, true} {
		var db *tsdb.DB
		if withDB {
			db = tsdb.New(retention)
		}
		m, err := New(sim.NewEngine(), mixedFleet(t, 250), db, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		now := sim.Time(0)
		sweep := func() {
			now = now.Add(sim.Minute)
			m.Sweep(now)
		}
		for i := 0; i < 2*retention+2; i++ { // the TSDB's ring has wrapped: appends reuse its slots
			sweep()
		}
		goroutines := runtime.NumGoroutine()
		if allocs := sweepMallocs(100, sweep); allocs != 0 {
			t.Errorf("tsdb %v: a three-goroutine sweep allocates %d objects, want 0", withDB, allocs)
		}
		if got := runtime.NumGoroutine(); got != goroutines {
			t.Errorf("tsdb %v: %d goroutines after the warm sweeps, %d before", withDB, got, goroutines)
		}
	}
}

// A monitor dropped after parallel sweeps is garbage, and its cluster with
// it: no parked helper holds them (a stack per /whatif query would otherwise
// never be freed). The finalizers sit on sentinels that only the monitor's
// and the cluster's callback lists reach, because both structures are
// cyclic and a finalizer on an object of a cycle never runs. A sentinel is
// 32 bytes because a pointer-free object under 16 shares a block of the tiny
// allocator with whatever else is live, and then its finalizer may never run.
func TestParallelSweepPinsNothing(t *testing.T) {
	type sentinel struct {
		calls int
		_     [3]int
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	collected := make(chan string, 2)
	func() {
		c := mixedFleet(t, 250)
		m, err := New(sim.NewEngine(), c, tsdb.New(8), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ofMonitor, ofCluster := new(sentinel), new(sentinel)
		runtime.SetFinalizer(ofMonitor, func(*sentinel) { collected <- "monitor" })
		runtime.SetFinalizer(ofCluster, func(*sentinel) { collected <- "cluster" })
		m.OnSample(func(sim.Time) { ofMonitor.calls++ })
		c.OnSpeedChange(func(*cluster.Server, float64) { ofCluster.calls++ })
		for i := 0; i < 3; i++ {
			m.Sweep(sim.Time(i) * sim.Time(sim.Minute))
		}
		if ofMonitor.calls != 3 {
			t.Fatalf("OnSample ran %d times in 3 sweeps", ofMonitor.calls)
		}
	}()
	for seen := 0; seen < 2; {
		runtime.GC()
		select {
		case <-collected:
			seen++
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of monitor and cluster collected after repeated GCs", seen)
		}
	}
}

// Under two shares (65,536 servers) there is no helper to wake: the sweep
// of every test rig, every federation shard and the paper's rows is the
// sample function called inline.
func TestSweepInlineUnderTwoShares(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for rows, width := range map[int]int{1: 1, 163: 1, 164: 2, 250: 3} {
		sp := cluster.DefaultSpec()
		sp.Rows = rows
		c, err := cluster.New(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(sim.NewEngine(), c, nil, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := m.sweepWidth(); got != width {
			t.Errorf("%d servers sweep on %d goroutines, want %d", len(c.Servers), got, width)
		}
	}
}
