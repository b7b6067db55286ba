package service

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// churnSpeed flips the server's frequency n times (each flip is a real speed
// change, so every listener fires).
func churnSpeed(sv *cluster.Server, n int) {
	sp := sv.Spec()
	for i := 0; i < n; i++ {
		sv.ApplyCap(sp.IdlePowerW + (sv.DemandW()-sp.IdlePowerW)*0.5)
		sv.RemoveCap()
	}
}

// Regression for the speed-history leak: while the service is not running —
// after New but before Start — capping churn must not grow the per-instance
// frequency history.
func TestSpeedHistoryBoundedWhileStopped(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 1)
	sv := servers[0]
	sv.Allocate(8, 8)
	s, err := New(eng, 1, steadyConfig(1, 1200), servers)
	if err != nil {
		t.Fatal(err)
	}
	inst := s.instances[0]

	churnSpeed(sv, 500) // never started
	if n := len(inst.segs); n != 1 {
		t.Fatalf("history grew to %d segments before Start, want 1", n)
	}

	// While running, history accumulates within a window and is compressed
	// at every window close — it must track churn, not leak across windows.
	s.Start()
	churnSpeed(sv, 3)
	if n := len(inst.segs); n != 7 { // baseline + 6 flips
		t.Errorf("running history has %d segments after 3 churns, want 7", n)
	}
	if err := eng.RunUntil(sim.Time(2 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if n := len(inst.segs); n != 1 {
		t.Errorf("history holds %d segments after window close, want 1", n)
	}
}

// Start resets the window state coherently: after a stretch of unstarted
// capping churn the history re-baselines at the current speed and the first
// windows produce sane latencies.
func TestRestartResetsWindowState(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 1)
	sv := servers[0]
	sv.Allocate(8, 8)
	s, err := New(eng, 3, steadyConfig(1, 100, Op{Name: "GET", BaseServiceUS: 100}), servers)
	if err != nil {
		t.Fatal(err)
	}
	churnSpeed(sv, 50)
	if err := eng.RunUntil(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	s.Start()
	inst := s.instances[0]
	if len(inst.segs) != 1 || inst.segs[0].at != eng.Now() || inst.segs[0].speed != sv.Speed() {
		t.Errorf("Start did not re-baseline history: %+v at now=%v speed=%v",
			inst.segs, eng.Now(), sv.Speed())
	}
	if err := eng.RunUntil(sim.Time(6 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if s.TotalServed() == 0 {
		t.Error("nothing served after Start")
	}
	// Uncapped and lightly loaded: p50 must sit near the base service time,
	// not inherit stale speed state.
	if p50 := s.LatencyQuantileUS(0, 0.5); p50 < 90 || p50 > 150 {
		t.Errorf("p50 = %v µs, want ≈100", p50)
	}
}

// Regression for the zero-speed poisoning bug: a 0 (or NaN) final segment used
// to make span×speed = ∞·0 = NaN, corrupting busyUntilMS and every later
// latency. finish must clamp and stay finite.
func TestFinishGuardsDegenerateSpeeds(t *testing.T) {
	cases := [][]speedSeg{
		{{at: 0, speed: 0}},
		{{at: 0, speed: -1}},
		{{at: 0, speed: math.NaN()}},
		{{at: 0, speed: 1}, {at: 100, speed: 0}},                      // 0-speed open-ended tail
		{{at: 0, speed: 0.5}, {at: 50, speed: 0}, {at: 60, speed: 1}}, // 0-speed interior
	}
	for i, segs := range cases {
		done := finish(segs, 10, 0.25)
		if math.IsNaN(done) || math.IsInf(done, 0) {
			t.Errorf("case %d: finish returned %v for segs %+v", i, done, segs)
		}
		if done < 10 {
			t.Errorf("case %d: finish returned %v before the start time", i, done)
		}
	}
	// Sanity: full speed finishes exactly, half speed takes twice as long.
	if got := finish([]speedSeg{{at: 0, speed: 1}}, 10, 0.25); got != 10.25 {
		t.Errorf("full-speed finish = %v, want 10.25", got)
	}
	if got := finish([]speedSeg{{at: 0, speed: 0.5}}, 10, 0.25); got != 10.5 {
		t.Errorf("half-speed finish = %v, want 10.5", got)
	}
}

// A service whose host reports zero speed for a whole window must still
// produce finite latency accounting end to end.
func TestZeroSpeedWindowStaysFinite(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 1)
	s, err := New(eng, 8, steadyConfig(1, 20, Op{Name: "GET", BaseServiceUS: 50}), servers)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Force a degenerate segment directly (cluster's own floor is 0.1, so a
	// zero can only come from a corrupted snapshot — model that).
	eng.At(sim.Time(15*sim.Second), "corrupt", func(now sim.Time) {
		inst := s.instances[0]
		inst.segs = append(inst.segs, speedSeg{at: now, speed: 0})
	})
	if err := eng.RunUntil(sim.Time(sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if s.TotalServed() == 0 {
		t.Fatal("nothing served")
	}
	for _, q := range []float64{0.5, 0.999} {
		v := s.AggregateLatencyQuantileUS(q)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("quantile %v is %v after a zero-speed segment", q, v)
		}
	}
	if bu := s.instances[0].busyUntilMS; math.IsNaN(bu) || math.IsInf(bu, 0) {
		t.Errorf("busyUntilMS poisoned: %v", bu)
	}
}

// replay's one-segment path is finish's first iteration: a window replayed
// over one segment, and again over the same segment followed by one that
// starts long after the window — so every request takes finish's walk —
// writes the same arrivals, bit for bit, at normal and degenerate speeds.
// The segment starts after the window does, so early requests wait for it.
func TestSingleSegmentReplayMatchesFinish(t *testing.T) {
	for _, speed := range []float64{1, 0.5, 0.1, 1e-9, 0, -1, math.NaN()} {
		s, err := New(sim.NewEngine(), 8, steadyConfig(1, 2000), newServers(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		s.win = window{start: 1000, ms: 1000, perInstPerMS: 2}
		inst := s.instances[0]
		run := func(segs []speedSeg) []arrival {
			inst.rng, inst.busyUntilMS, inst.closed, inst.out = sim.RNGState(5), 0, segs, nil
			s.replay(inst)
			return inst.out
		}
		one := run([]speedSeg{{at: 1200, speed: speed}})
		two := run([]speedSeg{{at: 1200, speed: speed}, {at: math.MaxInt64, speed: 1}})
		if len(one) < 1000 || !reflect.DeepEqual(one, two) {
			t.Errorf("speed %v: %d arrivals over one segment, %d over two, or they differ", speed, len(one), len(two))
		}
	}
}
