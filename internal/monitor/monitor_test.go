package monitor

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

func newCluster(t *testing.T, rows, racks, perRack int) *cluster.Cluster {
	t.Helper()
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = rows, racks, perRack
	sp.NoiseSigmaW = 0
	c, err := cluster.New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 1, 1, 1)
	for _, rate := range []float64{-0.1, 1} {
		if _, err := New(eng, c, nil, Config{SweepDropRate: rate}); err == nil {
			t.Errorf("sweep drop rate %v accepted", rate)
		}
	}
}

func TestSweepAggregation(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 2, 2, 3)
	db := tsdb.New(0)
	m, err := New(eng, c, db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Load one server on row 0 fully.
	c.Server(0).Allocate(c.Spec.Containers, float64(c.Spec.Containers))
	m.Sweep(0)

	idle := c.Spec.IdlePowerW
	rated := c.Spec.RatedPowerW
	wantRow0 := rated + 5*idle
	if got, ok := m.RowPower(0); !ok || math.Abs(got-wantRow0) > 1e-9 {
		t.Errorf("row 0 power %v, want %v", got, wantRow0)
	}
	if got, ok := m.RowPower(1); !ok || math.Abs(got-6*idle) > 1e-9 {
		t.Errorf("row 1 power %v, want %v", got, 6*idle)
	}
	if p, ok := m.ServerPower(0); !ok || math.Abs(p-rated) > 1e-9 {
		t.Errorf("server 0 power %v", p)
	}
	if _, ok := m.ServerPower(-1); ok {
		t.Error("negative server id accepted")
	}
	if _, ok := m.RowPower(5); ok {
		t.Error("out-of-range row accepted")
	}

	// TSDB series.
	if p, ok := db.Latest(SeriesRow(0)); !ok || math.Abs(p.V-wantRow0) > 1e-9 {
		t.Errorf("tsdb row 0 = %+v", p)
	}
	if p, ok := db.Latest(SeriesRack(0, 0)); !ok || math.Abs(p.V-(rated+2*idle)) > 1e-9 {
		t.Errorf("tsdb rack 0/0 = %+v", p)
	}
	if p, ok := db.Latest(SeriesDC); !ok || math.Abs(p.V-(rated+11*idle)) > 1e-9 {
		t.Errorf("tsdb dc = %+v", p)
	}
}

func TestGroupPower(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 1, 1, 4)
	m, err := New(eng, c, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.GroupPower([]cluster.ServerID{0}); ok {
		t.Error("group power available before any sweep")
	}
	c.Server(1).Allocate(c.Spec.Containers, float64(c.Spec.Containers))
	m.Sweep(0)
	got, ok := m.GroupPower([]cluster.ServerID{0, 1})
	want := c.Spec.IdlePowerW + c.Spec.RatedPowerW
	if !ok || math.Abs(got-want) > 1e-9 {
		t.Errorf("group power %v, want %v", got, want)
	}
	if _, ok := m.GroupPower([]cluster.ServerID{99}); ok {
		t.Error("unknown member accepted")
	}
}

func TestPeriodicSampling(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 1, 1, 2)
	db := tsdb.New(0)
	m, err := New(eng, c, db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sampleTimes []sim.Time
	m.OnSample(func(now sim.Time) { sampleTimes = append(sampleTimes, now) })
	m.Start()
	m.Start() // idempotent
	if err := eng.RunUntil(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if m.Sweeps() != 6 { // t = 0..5 inclusive
		t.Errorf("sweeps = %d, want 6", m.Sweeps())
	}
	if len(sampleTimes) != 6 || sampleTimes[1] != sim.Time(sim.Minute) {
		t.Errorf("sample times = %v", sampleTimes)
	}
	if db.Len(SeriesRow(0)) != 6 {
		t.Errorf("row series has %d points", db.Len(SeriesRow(0)))
	}
	m.Stop()
	if err := eng.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if m.Sweeps() != 6 {
		t.Error("monitor kept sweeping after Stop")
	}
	if ts, ok := m.LastSampleTime(); !ok || ts != sim.Time(5*sim.Minute) {
		t.Errorf("LastSampleTime = %v, %v", ts, ok)
	}
}

// A restarted monitor (fresh instance over the same TSDB) recovers: the
// paper's monitor is stateless by design.
func TestMonitorStatelessRestart(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 1, 1, 2)
	db := tsdb.New(0)
	m1, err := New(eng, c, db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	if err := eng.RunUntil(sim.Time(3 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	m1.Stop()

	// "Crash": a new monitor instance resumes against the same DB.
	m2, err := New(eng, c, db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	if err := eng.RunUntil(sim.Time(6 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	// Series continuity: samples at minutes 0..3 from m1, 3..6 from m2
	// (minute 3 sampled twice, which the TSDB permits).
	if got := db.Len(SeriesRow(0)); got != 8 {
		t.Errorf("row series has %d points after restart, want 8", got)
	}
	if p, ok := m2.RowPower(0); !ok || p <= 0 {
		t.Errorf("restarted monitor snapshot: %v %v", p, ok)
	}
}

func TestSweepDropInjection(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 1, 1, 2)
	cfg := DefaultConfig()
	cfg.SweepDropRate = 0.3
	cfg.DropSeed = 5
	m, err := New(eng, c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := eng.RunUntil(sim.Time(10 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	total := m.Sweeps() + m.Dropped()
	if total != 601 {
		t.Fatalf("sweeps+dropped = %d, want 601", total)
	}
	frac := float64(m.Dropped()) / float64(total)
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("dropped fraction %.3f, want ≈0.30", frac)
	}
	// Snapshot survives drops: the last successful sweep stays readable.
	if _, ok := m.RowPower(0); !ok {
		t.Error("no snapshot despite many successful sweeps")
	}
	// Rate 1 is invalid (every sweep dropped forever).
	cfg.SweepDropRate = 1
	if _, err := New(eng, c, nil, cfg); err == nil {
		t.Error("drop rate 1 accepted")
	}
	cfg.SweepDropRate = -0.1
	if _, err := New(eng, c, nil, cfg); err == nil {
		t.Error("negative drop rate accepted")
	}
}

// byNameStore hides the *tsdb.DB, the way a fault injector or a timing
// wrapper does, so the monitor must append by name.
type byNameStore struct {
	db     *tsdb.DB
	writes int
	calls  []appendCall // every write, in order
}

type appendCall struct {
	name string
	t    sim.Time
	v    float64
}

func (s *byNameStore) Append(name string, t sim.Time, v float64) error {
	s.writes++
	s.calls = append(s.calls, appendCall{name, t, v})
	return s.db.Append(name, t, v)
}

// A frame is a layout, not a second history: a sweep written as one frame
// row and the same sweep written series by series through a wrapper end up
// as the same points, and the wrapper still sees every write.
func TestFrameAndNamePathsWriteTheSameHistory(t *testing.T) {
	build := func(wrap bool) (*tsdb.DB, *byNameStore) {
		eng := sim.NewEngine()
		c := newCluster(t, 2, 2, 3)
		db := tsdb.New(0)
		m, err := New(eng, c, db, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		st := &byNameStore{db: db}
		if wrap {
			m.SetStore(st)
		}
		for i := 1; i <= 3; i++ {
			m.Sweep(sim.Time(i) * sim.Time(sim.Minute))
		}
		return db, st
	}
	direct, _ := build(false)
	wrapped, st := build(true)
	names := direct.Names()
	if want := 1 + 2 + 4; len(names) != want || len(wrapped.Names()) != want {
		t.Fatalf("%d series direct, %d wrapped, want %d", len(names), len(wrapped.Names()), want)
	}
	if st.writes != 3*len(names) {
		t.Errorf("wrapper saw %d writes, want %d", st.writes, 3*len(names))
	}
	for _, name := range names {
		a, b := direct.Query(name, 0, sim.Time(sim.Hour)), wrapped.Query(name, 0, sim.Time(sim.Hour))
		if len(a) != 3 || len(b) != 3 {
			t.Fatalf("%s: %d and %d points, want 3", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: %+v by handle, %+v by name", name, i, a[i], b[i])
			}
		}
	}
}

// A sweep holding a non-finite value is rejected whole: one write error on
// the monitor and on tsdb_append_errors_total, no point of it in the TSDB —
// finite racks and rows included — and the snapshot updated all the same.
func TestNonFiniteSweepRejectedWhole(t *testing.T) {
	c := newCluster(t, 2, 2, 3)
	db := tsdb.New(0)
	reg := obs.NewRegistry()
	db.Instrument(reg)
	m, err := New(sim.NewEngine(), c, db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Server(0).Allocate(1, math.NaN())
	m.Sweep(sim.Time(sim.Minute))
	if m.WriteErrors() != 1 {
		t.Errorf("WriteErrors = %d, want 1", m.WriteErrors())
	}
	if n := db.PointCount(); n != 0 || len(db.Names()) != 0 {
		t.Errorf("a rejected sweep left %d points in %v", n, db.Names())
	}
	if p, ok := m.RowPower(1); !ok || p <= 0 {
		t.Errorf("snapshot not updated: row 1 %v, %v", p, ok)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tsdb_append_errors_total 1") {
		t.Errorf("scrape missing tsdb_append_errors_total 1:\n%s", buf.String())
	}
}
