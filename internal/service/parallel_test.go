package service

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// wideRig is a service above the fan-out threshold: 100 loaded hosts under
// the three default classes at rps requests/s an instance, 1 s windows.
// Every third host is capped to half speed and released again every 300 ms,
// so windows hold several frequency segments.
func wideRig(t testing.TB, rps int) (*Service, *sim.Engine) {
	t.Helper()
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 1, 5, 20
	sp.NoiseSigmaW = 0
	c, err := cluster.New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range c.Servers {
		sv.Allocate(8, 8)
	}
	config := Config{Classes: DefaultClasses(len(c.Servers)*rps, 1), Window: sim.Second}
	eng := sim.NewEngine()
	s, err := New(eng, 29, config, c.Servers)
	if err != nil {
		t.Fatal(err)
	}
	capped := false
	eng.Every(sim.Time(300*sim.Millisecond), 300*sim.Millisecond, "churn", func(sim.Time) {
		capped = !capped
		for i := 0; i < len(c.Servers); i += 3 {
			sv := c.Servers[i]
			if capped {
				sp := sv.Spec()
				sv.ApplyCap(sp.IdlePowerW + (sv.DemandW()-sp.IdlePowerW)*0.5)
			} else {
				sv.RemoveCap()
			}
		}
	})
	s.Start()
	return s, eng
}

// digest hashes what windows leave in the accounting: every counter and, per
// histogram, its count and the bits of its sum and of three quantiles.
func digest(s *Service) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for ci := range s.hist {
		for oi, lh := range s.hist[ci] {
			put(uint64(s.served[ci][oi]))
			put(uint64(s.sloMisses[ci][oi]))
			put(uint64(lh.Count()))
			put(math.Float64bits(lh.Sum()))
			for _, q := range []float64{0.5, 0.99, 0.999} {
				put(math.Float64bits(lh.Quantile(q)))
			}
		}
	}
	return h.Sum64()
}

// wideDigest is digest after four windows of wideRig at 1,500 requests/s,
// taken from the serial replay that recorded each arrival as it replayed it,
// before the sample and publish phases existed: a float sum depends on the
// order of its terms, so this pins the publish order too.
const wideDigest = 0x652b0ea2479567b6

// The sample phase's width changes wall time, never the accounting: at
// GOMAXPROCS 1, 2, 3 and 8, four windows of about 140,000 arrivals (four
// shares) leave the same counters and the same histograms, down to every
// bucket count and the bits of every sum, as the serial replay did.
func TestReplayIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const windows = 4
	run := func(procs int) *Service {
		runtime.GOMAXPROCS(procs)
		s, eng := wideRig(t, 1500)
		if err := eng.RunUntil(sim.Time(windows * sim.Second)); err != nil {
			t.Fatal(err)
		}
		if w := s.replayWidth(); w > procs || w < min(procs, 4) {
			t.Fatalf("GOMAXPROCS %d: the last window replayed on %d goroutines", procs, w)
		}
		if d := digest(s); d != wideDigest {
			t.Errorf("GOMAXPROCS %d: accounting digest %#x, the serial replay's %#x", procs, d, uint64(wideDigest))
		}
		return s
	}
	want := run(1)
	if n := want.TotalServed(); n < windows*100_000 {
		t.Fatalf("%d requests served in %d windows", n, windows)
	}
	for _, procs := range []int{2, 3, 8} {
		got := run(procs)
		if !reflect.DeepEqual(got.served, want.served) || !reflect.DeepEqual(got.sloMisses, want.sloMisses) {
			t.Errorf("GOMAXPROCS %d: served or SLO-miss counters differ from GOMAXPROCS 1", procs)
		}
		for ci := range want.hist {
			for oi, wh := range want.hist[ci] {
				gh := got.hist[ci][oi]
				if !reflect.DeepEqual(gh, wh) || math.Float64bits(gh.Sum()) != math.Float64bits(wh.Sum()) {
					t.Errorf("GOMAXPROCS %d: histogram [%d][%d] holds %d values summing to %v, GOMAXPROCS 1 %d to %v",
						procs, ci, oi, gh.Count(), gh.Sum(), wh.Count(), wh.Sum())
				}
				for _, q := range []float64{0.5, 0.99, 0.999} {
					if g, w := gh.Quantile(q), wh.Quantile(q); math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("GOMAXPROCS %d: histogram [%d][%d] q%v = %v, GOMAXPROCS 1 %v", procs, ci, oi, q, g, w)
					}
				}
			}
		}
	}
}

// Under two shares nothing fans out: a quick-fig11scale-sized service (8
// instances, 465 requests/s in all, 10 s windows: 4,650 arrivals) replays
// inline at any GOMAXPROCS, where the wide rig's helpers run.
func TestReplayInlineUnderTwoShares(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	eng := sim.NewEngine()
	quick, err := New(eng, 1, Config{Classes: DefaultClasses(30_000, 0.0155), Window: 10 * sim.Second}, newServers(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	quick.Start()
	if err := eng.RunUntil(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if w := quick.replayWidth(); w != 1 {
		t.Errorf("a 4,650-arrival window replays on %d goroutines, want 1", w)
	}
	wide, eng := wideRig(t, 1500)
	if err := eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if w := wide.replayWidth(); w < 4 {
		t.Errorf("a %d-arrival window replays on %d goroutines, want at least 4", wide.TotalServed(), w)
	}
}

// windowMallocs is testing.AllocsPerRun without its GOMAXPROCS(1), under
// which a window would replay inline: after one warm-up call, the fewest heap
// objects allocated during any one of runs calls. The count is process-wide
// and the runtime allocates now and then (GC workers on new Ps), so what the
// window itself allocates shows as the minimum.
func windowMallocs(runs int, f func()) uint64 {
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

// The parallel sample phase keeps the replay's contracts: no allocation in
// steady state — the loop body is a method value bound in New, and every
// buffer is sized on the caller before the fan-out — and no goroutine started
// by a warm window: the helpers are the pool's, parked between windows.
func TestParallelReplayAllocatesAndParksNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s, eng := wideRig(t, 1000)
	now := sim.Time(0)
	window := func() {
		now = now.Add(sim.Second)
		if err := eng.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // past the flash burst, the rig's widest windows (7 to 9)
		window()
	}
	goroutines := runtime.NumGoroutine()
	if w := s.replayWidth(); w < 2 {
		t.Fatalf("the rig replays on %d goroutine; the guard needs helpers", w)
	}
	if allocs := windowMallocs(30, window); allocs != 0 {
		t.Errorf("a %d-goroutine window allocates %d objects, want 0", s.replayWidth(), allocs)
	}
	if got := runtime.NumGoroutine(); got != goroutines {
		t.Errorf("%d goroutines after the warm windows, %d before", got, goroutines)
	}
}

// A service dropped after parallel windows is garbage: no parked helper
// holds it (a stack per /whatif query would otherwise never be freed). The
// finalizer sits on the operation table, which only the service reaches and
// which is in no cycle, so its finalizer can run.
func TestParallelReplayPinsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	collected := make(chan struct{}, 1)
	func() {
		s, eng := wideRig(t, 1000)
		if err := eng.RunUntil(sim.Time(3 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		if w := s.replayWidth(); w < 2 {
			t.Fatalf("the rig replays on %d goroutine; the guard needs helpers", w)
		}
		runtime.SetFinalizer(&s.Ops()[0], func(*Op) { collected <- struct{}{} })
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(100 * time.Millisecond):
			if i == 20 {
				t.Fatal("the service was not collected after repeated GCs")
			}
		}
	}
}
