package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

func TestClassValidation(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 1)
	ops := []Op{{Name: "GET", BaseServiceUS: 50}}
	try := func(c Class) error {
		cfg := Config{Classes: []Class{c}, Ops: ops, Window: 10 * sim.Second}
		_, err := New(eng, 1, cfg, servers)
		return err
	}
	bad := []Class{
		{Kind: Steady, Users: 10, RPSPerUser: 1},                                              // no name
		{Name: "c", Kind: Steady, Users: 0, RPSPerUser: 1},                                    // no users
		{Name: "c", Kind: Steady, Users: 10, RPSPerUser: 0},                                   // zero rate
		{Name: "c", Kind: Steady, Users: 10, RPSPerUser: math.Inf(1)},                         // inf rate
		{Name: "c", Kind: Steady, Users: 10, RPSPerUser: math.NaN()},                          // NaN rate
		{Name: "c", Kind: Diurnal, Users: 10, RPSPerUser: 1, Amplitude: 1},                    // amp ≥ 1
		{Name: "c", Kind: Diurnal, Users: 10, RPSPerUser: 1, Amplitude: -0.1},                 // amp < 0
		{Name: "c", Kind: Flash, Users: 10, RPSPerUser: 1, BurstMult: 0.5},                    // mult < 1
		{Name: "c", Kind: Flash, Users: 10, RPSPerUser: 1, BurstMult: math.NaN()},             // NaN mult
		{Name: "c", Kind: Flash, Users: 10, RPSPerUser: 1, BurstMult: 2, BurstStartProb: 1.5}, // prob > 1
		{Name: "c", Kind: ArrivalKind(99), Users: 10, RPSPerUser: 1},                          // unknown kind
	}
	for i, c := range bad {
		if try(c) == nil {
			t.Errorf("bad class %d accepted: %+v", i, c)
		}
	}
	cfg := Config{Classes: []Class{
		{Name: "c", Kind: Steady, Users: 10, RPSPerUser: 1},
		{Name: "c", Kind: Steady, Users: 10, RPSPerUser: 1},
	}, Ops: ops, Window: 10 * sim.Second}
	if _, err := New(eng, 1, cfg, servers); err == nil {
		t.Error("duplicate class names accepted")
	}
}

func TestDefaultClassesShape(t *testing.T) {
	cs := DefaultClasses(1_000_000, 0.05)
	if len(cs) != 3 {
		t.Fatalf("got %d classes, want 3", len(cs))
	}
	users := 0
	var total float64
	for _, c := range cs {
		if err := c.validate(); err != nil {
			t.Errorf("default class %s invalid: %v", c.Name, err)
		}
		users += c.Users
		total += c.BaseRPS()
	}
	if users != 1_000_000 {
		t.Errorf("classes cover %d users, want the full million", users)
	}
	if math.Abs(total-50_000) > 1e-6 {
		t.Errorf("aggregate base rate %v, want 50000", total)
	}
	kinds := map[ArrivalKind]bool{}
	for _, c := range cs {
		kinds[c.Kind] = true
	}
	if !kinds[Steady] || !kinds[Diurnal] || !kinds[Flash] {
		t.Errorf("default mix misses an arrival kind: %v", kinds)
	}
}

func TestDiurnalWindowRate(t *testing.T) {
	cs := &classState{cfg: Class{
		Name: "d", Kind: Diurnal, Users: 1000, RPSPerUser: 1,
		PeakHour: 14, Amplitude: 0.5,
	}}
	base := cs.cfg.BaseRPS()
	atPeak := cs.windowRate(sim.Time(14 * sim.Hour))
	atTrough := cs.windowRate(sim.Time(2 * sim.Hour))
	if math.Abs(atPeak-base*1.5) > 1e-6 {
		t.Errorf("peak rate %v, want %v", atPeak, base*1.5)
	}
	if math.Abs(atTrough-base*0.5) > 1e-6 {
		t.Errorf("trough rate %v, want %v", atTrough, base*0.5)
	}
	// Next day's peak matches: the modulation is 24 h periodic.
	nextDay := cs.windowRate(sim.Time(14*sim.Hour + sim.Day))
	if math.Abs(nextDay-atPeak) > 1e-6 {
		t.Errorf("rate not 24 h periodic: %v vs %v", nextDay, atPeak)
	}
}

func TestFlashPhaseMachine(t *testing.T) {
	cs := &classState{
		cfg: Class{Name: "f", Kind: Flash, Users: 100, RPSPerUser: 1,
			BurstMult: 4, BurstStartProb: 1, BurstStopProb: 1},
		rng: sim.SubRNG(1, "flash-test"),
	}
	base := cs.cfg.BaseRPS()
	if got := cs.windowRate(0); got != base {
		t.Errorf("idle rate %v, want %v", got, base)
	}
	cs.advancePhase() // StartProb 1: must ignite
	if !cs.burst {
		t.Fatal("class did not ignite with BurstStartProb 1")
	}
	if got := cs.windowRate(0); got != base*4 {
		t.Errorf("burning rate %v, want %v", got, base*4)
	}
	cs.advancePhase() // StopProb 1: must extinguish
	if cs.burst {
		t.Fatal("class did not extinguish with BurstStopProb 1")
	}
	// Steady classes never draw from the phase RNG (rng may be nil).
	st := &classState{cfg: Class{Name: "s", Kind: Steady, Users: 1, RPSPerUser: 1}}
	st.advancePhase()
}

// Property (satellite 4): open-loop arrival counts match the configured class
// rates. With Poisson arrivals the observed count over many windows must land
// within a few standard deviations of rate × time.
func TestArrivalCountsMatchClassRates(t *testing.T) {
	eng := sim.NewEngine()
	servers := newServers(t, 4)
	classes := []Class{
		{Name: "bulk", Kind: Steady, Users: 4000, RPSPerUser: 0.5}, // 2000 rps
		{Name: "premium", Kind: Steady, Users: 500, RPSPerUser: 2}, // 1000 rps
	}
	cfg := Config{
		Classes: classes,
		Ops:     []Op{{Name: "GET", BaseServiceUS: 40}},
		Window:  10 * sim.Second,
	}
	s, err := New(eng, 99, cfg, servers)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	const horizon = 2 * sim.Minute
	if err := eng.RunUntil(sim.Time(horizon)); err != nil {
		t.Fatal(err)
	}
	secs := float64(horizon) / float64(sim.Second)
	for ci, c := range classes {
		want := c.BaseRPS() * secs
		got := float64(s.ClassServed(ci))
		// 5σ for a Poisson count, plus a hair for the queue tail.
		tol := 5*math.Sqrt(want) + 50
		if math.Abs(got-want) > tol {
			t.Errorf("class %s served %.0f requests, want %.0f ± %.0f", c.Name, got, want, tol)
		}
	}
}

func TestMultiClassDeterminism(t *testing.T) {
	run := func() (int64, int64, float64) {
		eng := sim.NewEngine()
		servers := newServers(t, 3)
		cfg := Config{
			Classes: DefaultClasses(30_000, 0.05),
			Window:  10 * sim.Second,
		}
		s, err := New(eng, 42, cfg, servers)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		if err := eng.RunUntil(sim.Time(3 * sim.Minute)); err != nil {
			t.Fatal(err)
		}
		return s.TotalServed(), s.ClassServed(2), s.AggregateLatencyQuantileUS(0.999)
	}
	n1, f1, p1 := run()
	n2, f2, p2 := run()
	if n1 != n2 || f1 != f2 || p1 != p2 {
		t.Errorf("runs diverged: (%d, %d, %v) vs (%d, %d, %v)", n1, f1, p1, n2, f2, p2)
	}
	if n1 == 0 {
		t.Error("nothing served")
	}
}

// rateTrace is the golden file's layout: each closed window's aggregate
// arrival rate per class, in requests/s.
type rateTrace struct {
	WindowMS int64       `json:"window_ms"`
	Classes  []string    `json:"classes"`
	Rates    [][]float64 `json:"rates"`
}

// The committed golden trace pins the class-rate streams — the diurnal curve
// and the MMPP phases under a fixed seed — of a bursty three-class mix over
// two servers, its BurstStartProb high enough that flash crowds ignite within
// the 12 windows. The rates are read after each window closes. Regenerate
// with `go test ./internal/service/ -run TestGoldenTrace -update`.
func TestGoldenTrace(t *testing.T) {
	cfg := Config{
		Classes: []Class{
			{Name: "steady", Kind: Steady, Users: 3000, RPSPerUser: 0.5},
			{Name: "diurnal", Kind: Diurnal, Users: 1500, RPSPerUser: 0.5,
				PeakHour: 14, Amplitude: 0.4},
			{Name: "flash", Kind: Flash, Users: 800, RPSPerUser: 0.5,
				BurstMult: 4, BurstStartProb: 0.3, BurstStopProb: 0.3},
		},
		Ops:    []Op{{Name: "GET", BaseServiceUS: 50, SLOUS: 1000}, {Name: "SET", BaseServiceUS: 60, SLOUS: 1200}},
		Window: 10 * sim.Second,
	}
	eng := sim.NewEngine()
	s, err := New(eng, 77, cfg, newServers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	tr := rateTrace{WindowMS: int64(cfg.Window / sim.Millisecond)}
	for _, c := range cfg.Classes {
		tr.Classes = append(tr.Classes, c.Name)
	}
	for w := 1; w <= 12; w++ {
		if err := eng.RunUntil(sim.Time(w) * sim.Time(cfg.Window)); err != nil {
			t.Fatal(err)
		}
		row := make([]float64, 0, len(s.classes))
		for _, cs := range s.classes {
			row = append(row, cs.rateRPS)
		}
		tr.Rates = append(tr.Rates, row)
	}
	got, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("class rates diverged from golden file %s:\n got: %s\nwant: %s\n(run with -update to regenerate)",
			path, bytes.TrimSpace(got), bytes.TrimSpace(want))
	}
}
