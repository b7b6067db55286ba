package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// fakeReader serves configurable per-server power samples. It cannot date
// them, so every sample counts as fresh.
type fakeReader struct {
	servers map[cluster.ServerID]float64
	down    bool // monitor outage
	snap    []float64
}

// PowerSnapshot lays the samples out by ServerID; a server with no sample
// reads NaN, which ranks last.
func (f *fakeReader) PowerSnapshot() ([]float64, bool) {
	if f.down {
		return nil, false
	}
	n := 0
	for id := range f.servers {
		n = max(n, int(id)+1)
	}
	f.snap = f.snap[:0]
	for id := 0; id < n; id++ {
		p, ok := f.servers[cluster.ServerID(id)]
		if !ok {
			p = math.NaN()
		}
		f.snap = append(f.snap, p)
	}
	return f.snap, true
}

func (f *fakeReader) GroupPower(ids []cluster.ServerID) (float64, bool) {
	if f.down {
		return 0, false
	}
	total := 0.0
	for _, id := range ids {
		total += f.servers[id]
	}
	return total, true
}

func (f *fakeReader) RangePower(lo, hi cluster.ServerID) (float64, bool) {
	if f.down {
		return 0, false
	}
	total := 0.0
	for id := lo; id <= hi; id++ {
		total += f.servers[id]
	}
	return total, true
}

func (f *fakeReader) GroupSampleTime([]cluster.ServerID) (sim.Time, bool) { return 0, false }

// fakeAPI records freeze/unfreeze calls and can inject failures.
type fakeAPI struct {
	frozen      map[cluster.ServerID]bool
	failFreezes bool
	ops         int
}

func newFakeAPI() *fakeAPI { return &fakeAPI{frozen: map[cluster.ServerID]bool{}} }

func (f *fakeAPI) Freeze(id cluster.ServerID) error {
	f.ops++
	if f.failFreezes {
		return errors.New("injected freeze failure")
	}
	if f.frozen[id] {
		return errors.New("double freeze")
	}
	f.frozen[id] = true
	return nil
}

func (f *fakeAPI) Unfreeze(id cluster.ServerID) error {
	f.ops++
	if !f.frozen[id] {
		return errors.New("not frozen")
	}
	delete(f.frozen, id)
	return nil
}

func ids(n int) []cluster.ServerID {
	out := make([]cluster.ServerID, n)
	for i := range out {
		out[i] = cluster.ServerID(i)
	}
	return out
}

// newTestController builds a 10-server domain with budget 1000 W, kr 0.1 and
// a constant Et.
func newTestController(t *testing.T, reader PowerReader, api FreezeAPI, et float64) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	d := Domain{
		Name:    "grp",
		Servers: ids(10),
		BudgetW: 1000,
		Kr:      0.10,
		Et:      ConstantEt(et),
	}
	ctl, err := New(sim.NewEngine(), reader, api, cfg, []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func uniformReader(n int, each float64) *fakeReader {
	f := &fakeReader{servers: map[cluster.ServerID]float64{}}
	for i := 0; i < n; i++ {
		f.servers[cluster.ServerID(i)] = each
	}
	return f
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	reader := uniformReader(2, 100)
	api := newFakeAPI()
	good := Domain{Name: "d", Servers: ids(2), BudgetW: 100, Kr: 0.10}
	if _, err := New(eng, nil, api, DefaultConfig(), []Domain{good}); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := New(eng, reader, nil, DefaultConfig(), []Domain{good}); err == nil {
		t.Error("nil api accepted")
	}
	if _, err := New(eng, reader, api, DefaultConfig(), nil); err == nil {
		t.Error("no domains accepted")
	}
	bads := []Domain{
		{Name: "d", Servers: nil, BudgetW: 100, Kr: 0.10},
		{Name: "d", Servers: ids(2), BudgetW: 0, Kr: 0.10},
		{Name: "d", Servers: ids(2), BudgetW: 100, Kr: -1},
		{Name: "d", Servers: ids(2), BudgetW: 100, Kr: 0},
	}
	for i, d := range bads {
		if _, err := New(eng, reader, api, DefaultConfig(), []Domain{d}); err == nil {
			t.Errorf("bad domain %d accepted", i)
		}
	}
	badCfgs := []func(*Config){
		func(c *Config) { c.RStable = 0 },
		func(c *Config) { c.RStable = 1.5 },
		func(c *Config) { c.MaxFreezeRatio = 0 },
		func(c *Config) { c.EtPercentile = 0 },
		func(c *Config) { c.Resilience.FailSafeAfter = 0 },
		func(c *Config) { c.Resilience.EtInflation = 0 },
		func(c *Config) { c.Resilience.EtInflation = math.Inf(1) },
	}
	for i, mutate := range badCfgs {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(eng, reader, api, cfg, []Domain{good}); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNoControlBelowThreshold(t *testing.T) {
	// p = 0.90, Et = 0.05 → threshold 0.95: no action.
	reader := uniformReader(10, 90)
	api := newFakeAPI()
	ctl := newTestController(t, reader, api, 0.05)
	ctl.Step(0)
	if len(api.frozen) != 0 {
		t.Errorf("froze %d servers below threshold", len(api.frozen))
	}
	st := ctl.Stats(0)
	if st.Ticks != 1 || st.ControlledTicks != 0 || st.Violations != 0 {
		t.Errorf("stats %+v", st)
	}
	if math.Abs(st.PMean()-0.9) > 1e-9 {
		t.Errorf("PMean %v", st.PMean())
	}
}

func TestFreezesPerEq13(t *testing.T) {
	// p = 0.985, Et = 0.05, kr = 0.1 → u = 0.35 → freeze ⌊0.35·10⌋ = 3.
	reader := uniformReader(10, 98)
	// Make servers 7, 3, 5 the hottest.
	reader.servers[7] = 120
	reader.servers[3] = 110
	reader.servers[5] = 105
	// Rebalance the rest so the group total is 985.
	rest := (985.0 - 335) / 7
	for i := 0; i < 10; i++ {
		if i != 7 && i != 3 && i != 5 {
			reader.servers[cluster.ServerID(i)] = rest
		}
	}
	api := newFakeAPI()
	ctl := newTestController(t, reader, api, 0.05)
	ctl.Step(0)
	if len(api.frozen) != 3 {
		t.Fatalf("froze %d servers, want 3", len(api.frozen))
	}
	for _, id := range []cluster.ServerID{7, 3, 5} {
		if !api.frozen[id] {
			t.Errorf("hottest server %d not frozen; frozen set %v", id, api.frozen)
		}
	}
	if got := ctl.FreezeRatio(0); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("freeze ratio %v", got)
	}
	if st := ctl.Stats(0); st.ControlledTicks != 1 || st.FreezeOps != 3 {
		t.Errorf("stats %+v", st)
	}
}

func TestMaxFreezeRatioCap(t *testing.T) {
	// p = 1.2 with kr = 0.1 wants u = 2.5; cap at 0.5 → 5 servers.
	reader := uniformReader(10, 120)
	api := newFakeAPI()
	ctl := newTestController(t, reader, api, 0.05)
	ctl.Step(0)
	if len(api.frozen) != 5 {
		t.Errorf("froze %d, want 5 (50%% cap)", len(api.frozen))
	}
	if st := ctl.Stats(0); st.Violations != 1 {
		t.Errorf("violations %d, want 1 (p=1.2)", st.Violations)
	}
	if got := ctl.Stats(0).UMax; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("UMax %v", got)
	}
}

func TestUnfreezeAllWhenLoadDrops(t *testing.T) {
	reader := uniformReader(10, 120)
	api := newFakeAPI()
	ctl := newTestController(t, reader, api, 0.05)
	ctl.Step(0)
	if len(api.frozen) == 0 {
		t.Fatal("nothing frozen under overload")
	}
	for id := range reader.servers {
		reader.servers[id] = 80 // p = 0.8, below threshold
	}
	ctl.Step(sim.Time(sim.Minute))
	if len(api.frozen) != 0 {
		t.Errorf("%d servers still frozen after load drop", len(api.frozen))
	}
	if got := ctl.FrozenCount(0); got != 0 {
		t.Errorf("controller tracks %d frozen", got)
	}
}

func TestRStableHysteresis(t *testing.T) {
	// Freeze the two hottest of four servers, then cool one of them to just
	// above rstable×(coldest top power): it must stay frozen. Cool it far
	// below: it must be swapped out.
	cfg := DefaultConfig()
	cfg.MaxFreezeRatio = 0.5
	reader := &fakeReader{servers: map[cluster.ServerID]float64{0: 120, 1: 115, 2: 100, 3: 65}}
	api := newFakeAPI()
	d := Domain{Name: "g", Servers: ids(4), BudgetW: 400, Kr: 0.2, Et: ConstantEt(0.05)}
	ctl, err := New(sim.NewEngine(), reader, api, cfg, []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Step(0) // p = 1.0, u = (1+0.05−1)/0.2 = 0.25 → 1 server? 0.25·4 = 1
	if !api.frozen[0] || len(api.frozen) != 1 {
		t.Fatalf("initial frozen set %v, want {0}", api.frozen)
	}
	// Server 0's jobs drain a bit (110 W); server 1 (115 W) is now hotter,
	// but 110 > 0.8·115 = 92, so server 0 stays frozen (stability).
	reader.servers[0] = 110
	reader.servers[3] = 75 // keep group total at 400
	ctl.Step(sim.Time(sim.Minute))
	if !api.frozen[0] || len(api.frozen) != 1 {
		t.Errorf("stable server swapped out: %v", api.frozen)
	}
	// Server 0 drains to 60 W < 0.8·115: swap to server 1.
	reader.servers[0] = 60
	reader.servers[3] = 125
	ctl.Step(sim.Time(2 * sim.Minute))
	if api.frozen[0] {
		t.Errorf("cooled server still frozen: %v", api.frozen)
	}
	if len(api.frozen) != 1 {
		t.Errorf("frozen set %v, want exactly 1", api.frozen)
	}
}

func TestMonitorOutageSkipsTick(t *testing.T) {
	reader := uniformReader(10, 120)
	reader.down = true
	api := newFakeAPI()
	ctl := newTestController(t, reader, api, 0.05)
	ctl.Step(0)
	st := ctl.Stats(0)
	if st.SkippedNoData != 1 || st.Ticks != 0 {
		t.Errorf("stats %+v", st)
	}
	if len(api.frozen) != 0 {
		t.Error("controller acted without data")
	}
	// Monitor recovers.
	reader.down = false
	ctl.Step(sim.Time(sim.Minute))
	if len(api.frozen) == 0 {
		t.Error("controller did not act after monitor recovery")
	}
}

func TestAPIFailuresDoNotCorruptTracking(t *testing.T) {
	reader := uniformReader(10, 120)
	api := newFakeAPI()
	api.failFreezes = true
	ctl := newTestController(t, reader, api, 0.05)
	ctl.Step(0)
	st := ctl.Stats(0)
	if st.APIErrors == 0 {
		t.Fatal("no API errors recorded")
	}
	if ctl.FrozenCount(0) != 0 {
		t.Error("controller tracks servers it failed to freeze")
	}
	// The scheduler recovers; the next tick succeeds.
	api.failFreezes = false
	ctl.Step(sim.Time(sim.Minute))
	if ctl.FrozenCount(0) != len(api.frozen) || len(api.frozen) == 0 {
		t.Errorf("tracking %d vs actual %d", ctl.FrozenCount(0), len(api.frozen))
	}
}

func TestResyncAfterRestart(t *testing.T) {
	reader := uniformReader(10, 120)
	api := newFakeAPI()
	ctl1 := newTestController(t, reader, api, 0.05)
	ctl1.Step(0)
	if len(api.frozen) != 5 {
		t.Fatalf("frozen %d", len(api.frozen))
	}

	// Controller crashes; a replacement resyncs from the scheduler's ground
	// truth and keeps controlling without double-freezing.
	ctl2 := newTestController(t, reader, api, 0.05)
	ctl2.Resync(func(id cluster.ServerID) bool { return api.frozen[id] })
	if ctl2.FrozenCount(0) != 5 {
		t.Fatalf("resync found %d frozen", ctl2.FrozenCount(0))
	}
	ctl2.Step(sim.Time(sim.Minute))
	if st := ctl2.Stats(0); st.APIErrors != 0 {
		t.Errorf("replacement controller made %d API errors", st.APIErrors)
	}
	// Load drops: the replacement can release servers frozen by ctl1.
	for id := range reader.servers {
		reader.servers[id] = 80
	}
	ctl2.Step(sim.Time(2 * sim.Minute))
	if len(api.frozen) != 0 {
		t.Errorf("replacement failed to unfreeze: %v", api.frozen)
	}
}

func TestOnlineEtTraining(t *testing.T) {
	// A domain with Et == nil gets an online HourlyEt trained from observed
	// deltas, and serves them once it holds etMinSamples.
	reader := uniformReader(10, 80)
	api := newFakeAPI()
	d := Domain{Name: "g", Servers: ids(10), BudgetW: 1000, Kr: 0.1}
	ctl, err := New(sim.NewEngine(), reader, api, DefaultConfig(), []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	h := ctl.HourlyEt(0)
	if h == nil {
		t.Fatal("no online estimator created")
	}
	for i := 0; i < etMinSamples+2; i++ {
		ctl.Step(sim.Time(i) * sim.Time(sim.Minute))
		for id := range reader.servers {
			reader.servers[id] += 1 // +10 W per minute group-wide = +0.01 normalized
		}
	}
	if got := h.Samples(0); got != etMinSamples+1 {
		t.Errorf("online estimator has %d samples, want %d", got, etMinSamples+1)
	}
	if est := h.Estimate(0); math.Abs(est-0.01) > 1e-6 {
		t.Errorf("trained Et %v, want ≈0.01", est)
	}
}

func TestPeriodicLoop(t *testing.T) {
	eng := sim.NewEngine()
	reader := uniformReader(10, 98)
	api := newFakeAPI()
	d := Domain{Name: "g", Servers: ids(10), BudgetW: 1000, Kr: 0.1, Et: ConstantEt(0.05)}
	ctl, err := New(eng, reader, api, DefaultConfig(), []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	ctl.Start() // idempotent
	if err := eng.RunUntil(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Stats(0).Ticks; got != 6 {
		t.Errorf("ticks = %d, want 6", got)
	}
	ctl.Stop()
	ctl.Stop()
	if err := eng.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Stats(0).Ticks; got != 6 {
		t.Error("controller ticked after Stop")
	}
}

func TestDeterministicTieBreaking(t *testing.T) {
	// All servers identical: the frozen set must be the lowest IDs, stably.
	run := func() []cluster.ServerID {
		reader := uniformReader(10, 98)
		api := newFakeAPI()
		ctl := newTestController(t, reader, api, 0.05)
		ctl.Step(0)
		var out []cluster.ServerID
		for i := 0; i < 10; i++ {
			if api.frozen[cluster.ServerID(i)] {
				out = append(out, cluster.ServerID(i))
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("frozen %v / %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] || a[i] != cluster.ServerID(i) {
			t.Errorf("tie-breaking not deterministic: %v vs %v", a, b)
		}
	}
}

func TestMultiDomainIndependence(t *testing.T) {
	reader := &fakeReader{servers: map[cluster.ServerID]float64{}}
	for i := 0; i < 10; i++ {
		reader.servers[cluster.ServerID(i)] = 120 // domain A overloaded
	}
	for i := 10; i < 20; i++ {
		reader.servers[cluster.ServerID(i)] = 70 // domain B light
	}
	api := newFakeAPI()
	idsB := make([]cluster.ServerID, 10)
	for i := range idsB {
		idsB[i] = cluster.ServerID(10 + i)
	}
	ds := []Domain{
		{Name: "a", Servers: ids(10), BudgetW: 1000, Kr: 0.1, Et: ConstantEt(0.05)},
		{Name: "b", Servers: idsB, BudgetW: 1000, Kr: 0.1, Et: ConstantEt(0.05)},
	}
	ctl, err := New(sim.NewEngine(), reader, api, DefaultConfig(), ds)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Step(0)
	if ctl.FrozenCount(0) == 0 {
		t.Error("overloaded domain not controlled")
	}
	if ctl.FrozenCount(1) != 0 {
		t.Error("light domain controlled")
	}
	for id := range api.frozen {
		if id >= 10 {
			t.Errorf("froze server %d outside overloaded domain", id)
		}
	}
}

func TestOverlappingDomainsRejected(t *testing.T) {
	reader := uniformReader(10, 90)
	api := newFakeAPI()
	ds := []Domain{
		{Name: "a", Servers: ids(6), BudgetW: 600, Kr: 0.10},
		{Name: "b", Servers: []cluster.ServerID{5, 6, 7}, BudgetW: 300, Kr: 0.10}, // 5 overlaps
	}
	if _, err := New(sim.NewEngine(), reader, api, DefaultConfig(), ds); err == nil {
		t.Error("overlapping domains accepted")
	}
	// Disjoint domains are fine.
	ds[1].Servers = []cluster.ServerID{6, 7, 8}
	if _, err := New(sim.NewEngine(), reader, api, DefaultConfig(), ds); err != nil {
		t.Errorf("disjoint domains rejected: %v", err)
	}
}

// TestDomainStatsAddFoldsEveryField sets one field at a time in two records
// and folds them both ways: a count or sum must add, a maximum must take the
// larger. A field Add leaves out keeps the receiver's value and fails here,
// including one added to DomainStats later.
func TestDomainStatsAddFoldsEveryField(t *testing.T) {
	typ := reflect.TypeOf(DomainStats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		set := func(v int64) DomainStats {
			var s DomainStats
			switch f := reflect.ValueOf(&s).Elem().Field(i); f.Kind() {
			case reflect.Int64:
				f.SetInt(v)
			case reflect.Float64:
				f.SetFloat(float64(v))
			default:
				t.Fatalf("%s: unhandled kind %v", name, f.Kind())
			}
			return s
		}
		want := 8.0
		if strings.HasSuffix(name, "Max") {
			want = 5
		}
		for _, pair := range [][2]int64{{3, 5}, {5, 3}} {
			f := reflect.ValueOf(set(pair[0]).Add(set(pair[1]))).Field(i)
			got := f.Convert(reflect.TypeOf(0.0)).Float()
			if got != want {
				t.Errorf("%s: %d folded with %d = %v, want %v", name, pair[0], pair[1], got, want)
			}
		}
	}
}
