package service

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func newServers(t *testing.T, n int) []*cluster.Server {
	t.Helper()
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 1, 1, n
	sp.NoiseSigmaW = 0
	c, err := cluster.New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c.Servers
}

// steadyConfig is fig11's shape: one steady class offering rps requests/s to
// each of n instances over ops (DefaultOps when none), in 10 s windows.
func steadyConfig(n int, rps float64, ops ...Op) Config {
	return Config{
		Classes: []Class{{Name: "default", Kind: Steady, Users: n, RPSPerUser: rps}},
		Ops:     ops,
		Window:  10 * sim.Second,
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 1)
	if _, err := New(eng, 1, steadyConfig(1, 1200), nil); err == nil {
		t.Error("no servers accepted")
	}
	if _, err := New(eng, 1, Config{}, servers); err == nil {
		t.Error("no classes accepted")
	}
	if _, err := New(eng, 1, steadyConfig(1, 0), servers); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := New(eng, 1, steadyConfig(1, 1200, Op{Name: "BAD", BaseServiceUS: 0}), servers); err == nil {
		t.Error("zero service time accepted")
	}
	cfg := steadyConfig(1, 1200)
	cfg.Window = -sim.Second
	if _, err := New(eng, 1, cfg, servers); err == nil {
		t.Error("negative window accepted")
	}
	// An infinite rate would make every gap between arrivals 0, and the window
	// close would append arrivals until memory ran out; a NaN diurnal rate
	// would silently serve nothing. New refuses both: nothing here runs.
	for _, classes := range [][]Class{
		{{Name: "c", Kind: Steady, Users: 10, RPSPerUser: 1e308}},
		{{Name: "c", Kind: Diurnal, Users: 10, RPSPerUser: 1.5e307, Amplitude: 0.5}}, // the crest overflows
		{{Name: "c", Kind: Flash, Users: 1, RPSPerUser: 1e308, BurstMult: 4}},        // the flash crowd overflows
		{{Name: "a", Kind: Steady, Users: 1, RPSPerUser: 1e308}, {Name: "b", Kind: Steady, Users: 1, RPSPerUser: 1e308}},
		{{Name: "c", Kind: Diurnal, Users: 10, RPSPerUser: 1, PeakHour: math.NaN()}},
		{{Name: "c", Kind: Diurnal, Users: 10, RPSPerUser: 1, PeakHour: math.Inf(1)}},
		{{Name: "c", Kind: Diurnal, Users: 10, RPSPerUser: 1, PeakHour: math.Inf(-1)}},
		{{Name: "c", Kind: Diurnal, Users: 10, RPSPerUser: 1, Amplitude: math.NaN()}},
		{{Name: "c", Kind: Flash, Users: 10, RPSPerUser: 1, BurstMult: 2, BurstStopProb: math.NaN()}},
	} {
		if _, err := New(eng, 1, Config{Classes: classes}, servers); err == nil {
			t.Errorf("classes %+v accepted", classes)
		}
	}
	// An arrival holds the class in 16 bits and the op in 8.
	cfg = steadyConfig(1, 1200, make([]Op, maxOps+1)...)
	for i := range cfg.Ops {
		cfg.Ops[i] = Op{Name: fmt.Sprint("OP", i), BaseServiceUS: 50}
	}
	if _, err := New(eng, 1, cfg, servers); err == nil {
		t.Errorf("%d ops accepted", len(cfg.Ops))
	}
	if _, err := New(eng, 1, steadyConfig(1, 1200, cfg.Ops[:maxOps]...), servers); err != nil {
		t.Errorf("%d ops refused: %v", maxOps, err)
	}
	cfg = Config{Ops: []Op{}, Classes: steadyConfig(1, 1200).Classes}
	if _, err := New(eng, 1, cfg, servers); err == nil {
		t.Error("an empty op table accepted")
	}
	// Two ops of one name would put two series with the same labels on
	// /metrics, and a NaN or negative objective would silently track nothing:
	// only zero disables tracking.
	for _, ops := range [][]Op{
		{{Name: "GET", BaseServiceUS: 50}, {Name: "GET", BaseServiceUS: 60}},
		{{Name: "", BaseServiceUS: 50}},
		{{Name: "GET", BaseServiceUS: 50, SLOUS: math.NaN()}},
		{{Name: "GET", BaseServiceUS: 50, SLOUS: -1}},
		{{Name: "GET", BaseServiceUS: 50, SLOUS: math.Inf(-1)}},
	} {
		if _, err := New(eng, 1, steadyConfig(1, 1200, ops...), servers); err == nil {
			t.Errorf("ops %+v accepted", ops)
		}
	}
	cfg = steadyConfig(1, 1200)
	for len(cfg.Classes) <= maxClasses {
		cfg.Classes = append(cfg.Classes, Class{Name: fmt.Sprint("c", len(cfg.Classes)), Kind: Steady, Users: 1, RPSPerUser: 1})
	}
	if _, err := New(eng, 1, cfg, servers); err == nil {
		t.Errorf("%d classes accepted", len(cfg.Classes))
	}
}

// The sample phase's record stays four to a cache line.
func TestArrivalIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(arrival{}); n != 16 {
		t.Errorf("arrival is %d bytes, want 16", n)
	}
}

// pickCum is the pick both of replay's picks replaced: the first index
// whose cumulative weight exceeds x, a draw in [0, 1), or the last index
// when none does.
func pickCum(x float64, cum []float64) int {
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// pickOp over opBounds(n) is pickCum over the cumulative table (i+1)/n, for
// every op count New accepts, 1 to maxOps: at each entry and both of its
// float neighbours, at 0 and at the largest draw below 1, and at a million
// random draws shared among the op counts, and at the 64 largest draws,
// whose x·n must stay below n. Both of the pick's corrections must be
// taken: x·n rounding up to the next integer, and down below it.
func TestPickOpMatchesPickCum(t *testing.T) {
	r := sim.NewRNG(11)
	draws := make([]float64, 1_000_000)
	for i := range draws {
		draws[i] = r.Float64()
	}
	var roundsUp, roundsDown int
	for n := 1; n <= maxOps; n++ {
		cum := make([]float64, n)
		for i := range cum {
			cum[i] = float64(i+1) / float64(n)
		}
		bound, fn := opBounds(n), float64(n)
		check := func(x float64) {
			if !(x >= 0 && x < 1) {
				return
			}
			got, want := pickOp(x, fn, bound), pickCum(x, cum)
			if got != want {
				t.Fatalf("n %d: x %v (bits %#x) picks %d, pickCum %d", n, x, math.Float64bits(x), got, want)
			}
			switch k := int(x * fn); {
			case k > want:
				roundsUp++
			case k < want:
				roundsDown++
			}
		}
		for _, c := range cum {
			check(c)
			check(math.Nextafter(c, 0))
			check(math.Nextafter(c, 1))
		}
		check(0)
		for m := 1; m <= 64; m++ {
			check(1 - float64(m)*0x1p-53)
		}
		for _, x := range draws[(n-1)*len(draws)/maxOps : n*len(draws)/maxOps] {
			check(x)
		}
	}
	if roundsUp == 0 || roundsDown == 0 {
		t.Errorf("x·n rounded up to the next op %d times and down below it %d times; want both", roundsUp, roundsDown)
	}
}

// pickClass over all but the last share is pickCum over them all, on the
// share tables closeWindow can build: zero-rate classes, whose cumulative
// share repeats the one before (first, inside and last), a last share that
// rounds below 1, and random rate mixes normalized as closeWindow does. Each
// is checked at every share and its float neighbours, at 0, at the largest
// draw below 1, and at random draws.
func TestPickClassMatchesPickCum(t *testing.T) {
	tables := [][]float64{
		{1},
		{0.5, 1},
		{0, 0, 1},
		{0.2, 0.2, 0.5, 1},
		{0.3, 0.6, 1, 1},
		{0.3, 0.6, 0.6, math.Nextafter(1, 0)},
		{0.25, 0.5, 0.75, 0.9999999},
	}
	r := sim.NewRNG(12)
	for len(tables) < 200 {
		rates := make([]float64, 1+r.Intn(12))
		for i := range rates {
			if r.Intn(3) > 0 {
				rates[i] = r.ExpFloat64() * math.Pow(10, float64(r.Intn(7)-3))
			}
		}
		total := 0.0
		cum := make([]float64, len(rates))
		for i, v := range rates {
			total += v
			cum[i] = total
		}
		if !(total > 0) {
			continue
		}
		for i := range cum {
			cum[i] /= total
		}
		tables = append(tables, cum)
	}
	for _, cum := range tables {
		check := func(x float64) {
			if !(x >= 0 && x < 1) {
				return
			}
			if got, want := pickClass(x, cum[:len(cum)-1]), pickCum(x, cum); got != want {
				t.Fatalf("shares %v: x %v (bits %#x) picks %d, pickCum %d", cum, x, math.Float64bits(x), got, want)
			}
		}
		for _, c := range cum {
			check(c)
			check(math.Nextafter(c, 0))
			check(math.Nextafter(c, 1))
		}
		check(0)
		check(math.Nextafter(1, 0))
		for range 1000 {
			check(r.Float64())
		}
	}
}

func TestFullSpeedLatencyNearServiceTime(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 2)
	// ρ = 400·50µs = 0.02: almost no queueing.
	cfg := steadyConfig(len(servers), 400, Op{Name: "GET", BaseServiceUS: 50})
	s, err := New(eng, 7, cfg, servers)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := eng.RunUntil(sim.Time(2 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if s.Served(0) == 0 {
		t.Fatal("no requests served")
	}
	p50 := s.LatencyQuantileUS(0, 0.5)
	if p50 < 45 || p50 > 70 {
		t.Errorf("p50 latency %v µs, want ≈50 (service time)", p50)
	}
	p999 := s.LatencyQuantileUS(0, 0.999)
	if p999 > 500 {
		t.Errorf("p999 latency %v µs unexpectedly high at ρ=0.02", p999)
	}
}

func TestCappingInflatesTailLatency(t *testing.T) {
	// The Fig 11 mechanism: halving the frequency at moderate load must
	// blow up the 99.9th percentile by clearly more than 2×.
	run := func(capped bool) float64 {
		eng := sim.NewEngine()
		servers := newServers(t, 2)
		for _, sv := range servers {
			sv.Allocate(8, 8) // demand so a cap produces speed < 1
			if capped {
				sp := sv.Spec()
				level := sp.IdlePowerW + (sv.DemandW()-sp.IdlePowerW)*0.5
				sv.ApplyCap(level)
			}
		}
		// ρ = 0.2 at full speed.
		cfg := steadyConfig(len(servers), 4000, Op{Name: "GET", BaseServiceUS: 50})
		s, err := New(eng, 7, cfg, servers)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		if err := eng.RunUntil(sim.Time(3 * sim.Minute)); err != nil {
			t.Fatal(err)
		}
		return s.LatencyQuantileUS(0, 0.999)
	}
	full := run(false)
	capped := run(true)
	if capped < full*1.8 {
		t.Errorf("capping inflated p999 only %vµs → %vµs (%.2f×), want ≥1.8×",
			full, capped, capped/full)
	}
}

func TestMidWindowSpeedChange(t *testing.T) {
	// A speed change in the middle of a window must affect only requests
	// after it: medians of early vs late halves differ accordingly.
	eng := sim.NewEngine()
	servers := newServers(t, 1)
	sv := servers[0]
	sv.Allocate(8, 8)
	cfg := steadyConfig(1, 100, Op{Name: "GET", BaseServiceUS: 100})
	cfg.Window = sim.Minute
	s, err := New(eng, 3, cfg, servers)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Cap to half speed at t = 5 min, uncap at 10 min.
	eng.At(sim.Time(5*sim.Minute), "cap", func(sim.Time) {
		sp := sv.Spec()
		sv.ApplyCap(sp.IdlePowerW + (sv.DemandW()-sp.IdlePowerW)*0.5)
	})
	eng.At(sim.Time(10*sim.Minute), "uncap", func(sim.Time) { sv.RemoveCap() })
	if err := eng.RunUntil(sim.Time(15 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	// Roughly 1/3 of requests ran at half speed (latency ≈ 200 µs), the
	// rest at full speed (≈ 100 µs): p50 near 100, p90 near 200.
	p50 := s.LatencyQuantileUS(0, 0.50)
	p90 := s.LatencyQuantileUS(0, 0.90)
	if p50 < 90 || p50 > 130 {
		t.Errorf("p50 = %v, want ≈100", p50)
	}
	if p90 < 170 || p90 > 260 {
		t.Errorf("p90 = %v, want ≈200", p90)
	}
}

func TestDefaultOpsShape(t *testing.T) {
	ops := DefaultOps()
	if len(ops) != 6 {
		t.Fatalf("want the 6 Fig-11 operations, got %d", len(ops))
	}
	names := map[string]bool{}
	for _, op := range ops {
		names[op.Name] = true
		if op.BaseServiceUS <= 0 {
			t.Errorf("op %s has non-positive service time", op.Name)
		}
	}
	for _, want := range []string{"SET", "GET", "LPUSH", "LPOP", "LRANGE_600", "MSET"} {
		if !names[want] {
			t.Errorf("missing op %s", want)
		}
	}
}

// A second Start neither adds a window stream nor moves the first one.
func TestStartStopIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 1)
	s, err := New(eng, 1, steadyConfig(1, 1200), servers)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := eng.RunUntil(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := eng.RunUntil(sim.Time(30 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if s.windowIdx != 3 {
		t.Errorf("%d windows closed in 30 s of 10 s windows, want 3", s.windowIdx)
	}
	if s.TotalServed() == 0 {
		t.Error("nothing served")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		eng := sim.NewEngine()
		servers := newServers(t, 2)
		s, err := New(eng, 42, steadyConfig(len(servers), 500), servers)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		if err := eng.RunUntil(sim.Time(sim.Minute)); err != nil {
			t.Fatal(err)
		}
		var total int64
		for i := range s.Ops() {
			total += s.Served(i)
		}
		return total, s.LatencyQuantileUS(0, 0.999)
	}
	n1, l1 := run()
	n2, l2 := run()
	if n1 != n2 || l1 != l2 {
		t.Errorf("runs diverged: (%d, %v) vs (%d, %v)", n1, l1, n2, l2)
	}
}

func TestSLOMissTracking(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 1)
	// SLO just above the service time: at trivial load nearly nothing
	// misses; with the host capped to half speed everything does.
	cfg := steadyConfig(1, 50, Op{Name: "GET", BaseServiceUS: 100, SLOUS: 150})
	s, err := New(eng, 5, cfg, servers)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := eng.RunUntil(sim.Time(2 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if miss := s.SLOMissRate(0); miss > 0.02 {
		t.Errorf("uncapped miss rate %.4f, want ≈0", miss)
	}
	// Cap to half speed: service takes 200 µs > 150 µs SLO.
	sv := servers[0]
	sv.Allocate(8, 8)
	sp := sv.Spec()
	sv.ApplyCap(sp.IdlePowerW + (sv.DemandW()-sp.IdlePowerW)*0.5)
	served := s.Served(0)
	if err := eng.RunUntil(sim.Time(4 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	missesAfter := float64(s.Served(0) - served) // all capped-phase requests
	_ = missesAfter
	if miss := s.SLOMissRate(0); miss < 0.3 {
		t.Errorf("capped-phase miss rate %.4f too low overall", miss)
	}
}

func TestDefaultOpsHaveSLOs(t *testing.T) {
	for _, op := range DefaultOps() {
		if op.SLOUS != 20*op.BaseServiceUS {
			t.Errorf("op %s SLO %v, want 20×%v", op.Name, op.SLOUS, op.BaseServiceUS)
		}
	}
}
