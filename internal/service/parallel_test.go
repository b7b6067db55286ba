package service

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
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
		settle(s) // the fourth window is in flight
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
// buffer is sized on the window goroutine before the fan-out — and no
// goroutine started by a warm window: the window goroutine and the helpers
// are parked between windows. Each count is taken with no window in flight.
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
	settle(s)
	goroutines := runtime.NumGoroutine()
	if w := s.replayWidth(); w < 2 {
		t.Fatalf("the rig replays on %d goroutine; the guard needs helpers", w)
	}
	if allocs := windowMallocs(30, window); allocs != 0 {
		t.Errorf("a %d-goroutine window allocates %d objects, want 0", s.replayWidth(), allocs)
	}
	settle(s)
	if got := runtime.NumGoroutine(); got != goroutines {
		t.Errorf("%d goroutines after the warm windows, %d before", got, goroutines)
	}
}

// A service dropped after parallel windows is garbage: no parked helper or
// window goroutine holds it (a stack per /whatif query would otherwise never
// be freed). The finalizer sits on the operation table, which only the
// service reaches and which is in no cycle, so its finalizer can run.
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

// settle waits for the window in flight and publishes it, as every reader
// does; after it the test may read the accounting and the instances
// directly.
func settle(s *Service) {
	s.lock()
	s.mu.Unlock()
}

// readout is what the locked accessors show of the accounting.
type readout struct {
	total  int64
	served []int64
}

func readServed(s *Service) readout {
	r := readout{total: s.TotalServed()}
	for i := range s.Ops() {
		r.served = append(r.served, s.Served(i))
	}
	return r
}

// scrape renders reg and returns the text with the service_windows_total it
// reports, the last family rendered.
func scrape(reg *obs.Registry) (string, int) {
	var buf strings.Builder
	reg.WritePrometheus(&buf) // a strings.Builder write cannot fail
	text := buf.String()
	const family = "\nservice_windows_total "
	windows := -1
	if i := strings.LastIndex(text, family); i >= 0 {
		fmt.Sscan(text[i+len(family):], &windows)
	}
	return text, windows
}

// Every reader sees every closed window whole, though the window replays
// while the engine runs on. The reference steps the engine to each boundary
// at GOMAXPROCS 1 and reads the accessors and a scrape there, and every
// window must add to its totals. Then, at GOMAXPROCS 1 and 4, an engine event
// 1 ms after each boundary, with that window still replaying, sets a
// goroutine scraping the collectors and reads the accessors itself; both
// must read what the reference read at that boundary, the scrape byte for
// byte.
func TestReadersSeeEveryClosedWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const windows = 5
	wantRead := make([]readout, windows+1)
	wantScrape := make([]string, windows+1)
	s, eng := wideRig(t, 1000)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	for k := 0; k <= windows; k++ {
		if err := eng.RunUntil(sim.Time(int64(k) * int64(sim.Second))); err != nil {
			t.Fatal(err)
		}
		wantRead[k] = readServed(s)
		text, w := scrape(reg)
		if w != k {
			t.Fatalf("reference: the scrape at %d s reports %d windows", k, w)
		}
		wantScrape[k] = text
		if k > 0 && wantRead[k].total <= wantRead[k-1].total {
			t.Fatalf("reference: %d requests after window %d, %d before it", wantRead[k].total, k, wantRead[k-1].total)
		}
	}

	type scraped struct {
		text    string
		windows int
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		s, eng := wideRig(t, 1000)
		reg := obs.NewRegistry()
		s.Instrument(reg)
		kick, result := make(chan struct{}), make(chan scraped)
		go func() {
			for range kick {
				text, w := scrape(reg)
				result <- scraped{text, w}
			}
		}()
		var reads []readout
		var scrapes []scraped
		eng.Every(sim.Time(sim.Second+sim.Millisecond), sim.Second, "reader", func(sim.Time) {
			kick <- struct{}{}
			reads = append(reads, readServed(s))
			scrapes = append(scrapes, <-result)
		})
		err := eng.RunUntil(sim.Time(windows*sim.Second + sim.Millisecond))
		close(kick)
		if err != nil {
			t.Fatal(err)
		}
		if len(reads) != windows {
			t.Fatalf("GOMAXPROCS %d: the reader ran %d times in %d windows", procs, len(reads), windows)
		}
		for k := 1; k <= windows; k++ {
			if !reflect.DeepEqual(reads[k-1], wantRead[k]) {
				t.Errorf("GOMAXPROCS %d: 1 ms after window %d the accessors read %+v, the reference %+v",
					procs, k, reads[k-1], wantRead[k])
			}
			if sc := scrapes[k-1]; sc.windows != k || sc.text != wantScrape[k] {
				t.Errorf("GOMAXPROCS %d: 1 ms after window %d a scrape reports %d windows, or differs from the reference's",
					procs, k, sc.windows)
			}
		}
	}

	// Dropped right after a window closed, before any reader waited for it,
	// the service is garbage once its window goroutine is done with it. At
	// GOMAXPROCS 1 the window has not begun when the service is dropped.
	runtime.GOMAXPROCS(1)
	collected := make(chan struct{}, 1)
	func() {
		s, eng := wideRig(t, 1000)
		if err := eng.RunUntil(sim.Time(2 * sim.Second)); err != nil {
			t.Fatal(err)
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
				t.Fatal("the service dropped with a window in flight was not collected after repeated GCs")
			}
		}
	}
}
