package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func testSpec() Spec {
	sp := DefaultSpec()
	sp.NoiseSigmaW = 0 // deterministic power in unit tests
	return sp
}

func TestSpecValidate(t *testing.T) {
	good := DefaultSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Rows = 0 },
		func(s *Spec) { s.RacksPerRow = -1 },
		func(s *Spec) { s.ServersPerRack = 0 },
		func(s *Spec) { s.RatedPowerW = 0 },
		func(s *Spec) { s.IdlePowerW = -1 },
		func(s *Spec) { s.IdlePowerW = s.RatedPowerW },
		func(s *Spec) { s.Containers = 0 },
		func(s *Spec) { n := int64(math.MaxInt32); s.Containers = int(n + 1) }, // busy is an int32
		func(s *Spec) { s.NoiseSigmaW = -1 },
	}
	for i, mutate := range cases {
		sp := DefaultSpec()
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestTopology(t *testing.T) {
	sp := testSpec()
	sp.Rows = 3
	sp.RacksPerRow = 4
	sp.ServersPerRack = 5
	c, err := New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Servers); got != 60 {
		t.Fatalf("total servers %d, want 60", got)
	}
	if c.Rows() != 3 {
		t.Fatalf("rows %d", c.Rows())
	}
	// IDs are dense and row-major; rack indexes cycle within a row.
	for i, s := range c.Servers {
		if int(s.ID) != i {
			t.Fatalf("server %d has ID %d", i, s.ID)
		}
		wantRow := i / 20
		if s.Row != wantRow {
			t.Errorf("server %d row %d, want %d", i, s.Row, wantRow)
		}
		wantRack := (i % 20) / 5
		if s.Rack != wantRack {
			t.Errorf("server %d rack %d, want %d", i, s.Rack, wantRack)
		}
	}
	if got := len(c.Row(1)); got != 20 {
		t.Errorf("row 1 has %d servers", got)
	}
	if c.Server(42).ID != 42 {
		t.Error("Server lookup broken")
	}
}

// RowIDs mirrors Row, in order, and hands out a slice the caller may keep
// and modify without disturbing the cluster or a later caller.
func TestRowIDs(t *testing.T) {
	sp := testSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 3, 2, 5
	c, err := New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.Rows(); r++ {
		ids, row := c.RowIDs(r), c.Row(r)
		if len(ids) != len(row) {
			t.Fatalf("row %d: %d ids for %d servers", r, len(ids), len(row))
		}
		for i, sv := range row {
			if ids[i] != sv.ID {
				t.Errorf("row %d position %d: id %d, server %d", r, i, ids[i], sv.ID)
			}
		}
	}
	a := c.RowIDs(1)
	a[0] = 999
	if b := c.RowIDs(1); b[0] != c.Row(1)[0].ID {
		t.Errorf("RowIDs shares its backing array: second call starts with %d", b[0])
	}
}

func TestPowerModel(t *testing.T) {
	sp := testSpec()
	c, err := New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	if got := s.DemandW(); got != sp.IdlePowerW {
		t.Errorf("idle demand %v, want %v", got, sp.IdlePowerW)
	}
	s.Allocate(sp.Containers, float64(sp.Containers))
	if got := s.DemandW(); got != sp.RatedPowerW {
		t.Errorf("full demand %v, want %v", got, sp.RatedPowerW)
	}
	if u := s.Utilization(); u != 1 {
		t.Errorf("utilization %v, want 1", u)
	}
	s.Release(sp.Containers/2, float64(sp.Containers)/2)
	want := sp.IdlePowerW + (sp.RatedPowerW-sp.IdlePowerW)*0.5
	if got := s.DemandW(); math.Abs(got-want) > 1e-9 {
		t.Errorf("half demand %v, want %v", got, want)
	}
}

func TestAllocateOverCapacityPanics(t *testing.T) {
	c, _ := New(testSpec(), 1)
	s := c.Server(0)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation did not panic")
		}
	}()
	s.Allocate(c.Spec.Containers+1, 1)
}

func TestReleaseUnderflowPanics(t *testing.T) {
	c, _ := New(testSpec(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("release underflow did not panic")
		}
	}()
	c.Server(0).Release(1, 1)
}

func TestCapping(t *testing.T) {
	sp := testSpec()
	c, _ := New(sp, 1)
	s := c.Server(0)
	s.Allocate(sp.Containers, float64(sp.Containers)) // demand = 250 W

	s.ApplyCap(200)
	if !s.Capped() {
		t.Fatal("not capped")
	}
	if got := s.DrawW(); got != 200 {
		t.Errorf("capped draw %v, want 200", got)
	}
	// speed = (200-165)/(250-165) ≈ 0.412
	wantSpeed := (200.0 - sp.IdlePowerW) / (sp.RatedPowerW - sp.IdlePowerW)
	if got := s.Speed(); math.Abs(got-wantSpeed) > 1e-9 {
		t.Errorf("speed %v, want %v", got, wantSpeed)
	}

	// A cap above demand leaves the server at full speed.
	s.ApplyCap(260)
	if s.Speed() != 1 || s.DrawW() != 250 {
		t.Errorf("cap above demand: speed=%v draw=%v", s.Speed(), s.DrawW())
	}

	// A cap below idle floors the frequency at the model minimum.
	s.ApplyCap(100)
	if s.Speed() != 0.1 {
		t.Errorf("cap below idle: speed=%v, want 0.1", s.Speed())
	}
	if got := s.DrawW(); got != 100 {
		t.Errorf("draw %v, want 100 (clamped)", got)
	}

	s.RemoveCap()
	if s.Capped() || s.Speed() != 1 || s.DrawW() != 250 {
		t.Errorf("after RemoveCap: capped=%v speed=%v draw=%v", s.Capped(), s.Speed(), s.DrawW())
	}
}

func TestCapZeroPanics(t *testing.T) {
	c, _ := New(testSpec(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero cap did not panic")
		}
	}()
	c.Server(0).ApplyCap(0)
}

// A NaN cap used to be accepted: Speed() became NaN, Capped() stayed false,
// and the scheduler was told to reschedule completions at a NaN wall time.
// A level that is not a positive finite number is a bug, like a zero one.
func TestCapNonFinitePanics(t *testing.T) {
	for _, level := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c, _ := New(testSpec(), 1)
		sv := c.Server(0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cap %v did not panic; speed %v capped %v", level, sv.Speed(), sv.Capped())
				}
			}()
			sv.ApplyCap(level)
		}()
	}
}

func TestSpeedChangeListener(t *testing.T) {
	sp := testSpec()
	c, _ := New(sp, 1)
	s := c.Server(0)
	s.Allocate(sp.Containers, float64(sp.Containers))
	var events []float64
	s.OnSpeedChange(func(sv *Server, old float64) { events = append(events, old) })
	s.ApplyCap(200) // speed drops from 1
	s.ApplyCap(200) // same speed: no event
	s.RemoveCap()   // back to 1
	if len(events) != 2 {
		t.Fatalf("got %d speed events, want 2: %v", len(events), events)
	}
	if events[0] != 1.0 {
		t.Errorf("first event old speed %v, want 1", events[0])
	}
}

func TestFreezeDoesNotAffectPower(t *testing.T) {
	sp := testSpec()
	c, _ := New(sp, 1)
	s := c.Server(0)
	s.Allocate(4, 4)
	before := s.DrawW()
	s.SetFrozen(true)
	if !s.Frozen() {
		t.Fatal("not frozen")
	}
	if got := s.DrawW(); got != before {
		t.Errorf("freeze changed power: %v -> %v", before, got)
	}
	s.SetFrozen(false)
	if s.Frozen() {
		t.Error("unfreeze failed")
	}
}

func TestAggregation(t *testing.T) {
	sp := testSpec()
	sp.Rows = 2
	sp.RacksPerRow = 2
	sp.ServersPerRack = 2
	c, _ := New(sp, 1)
	for _, s := range c.Servers {
		s.Allocate(sp.Containers, float64(sp.Containers))
	}
	rowWant := 4 * sp.RatedPowerW
	if got := c.RowDrawW(0); got != rowWant {
		t.Errorf("row draw %v, want %v", got, rowWant)
	}
	if got := c.RackDrawW(1, 1); got != 2*sp.RatedPowerW {
		t.Errorf("rack draw %v, want %v", got, 2*sp.RatedPowerW)
	}
	if got := c.TotalDrawW(); got != 2*rowWant {
		t.Errorf("total draw %v, want %v", got, 2*rowWant)
	}
	if got := sp.RowRatedPowerW(); got != rowWant {
		t.Errorf("RowRatedPowerW %v, want %v", got, rowWant)
	}
}

func TestSamplePowerNoise(t *testing.T) {
	sp := DefaultSpec() // noise on
	c, _ := New(sp, 7)
	s := c.Server(0)
	var diff float64
	for i := 0; i < 100; i++ {
		diff += math.Abs(s.SamplePower() - s.DrawW())
	}
	if diff == 0 {
		t.Error("sampled power shows no measurement noise")
	}
	// Noise-free spec samples equal the draw exactly.
	c2, _ := New(testSpec(), 7)
	s2 := c2.Server(0)
	if s2.SamplePower() != s2.DrawW() {
		t.Error("noise-free sample differs from draw")
	}
}

func TestSamplePowerNeverNegative(t *testing.T) {
	sp := DefaultSpec()
	sp.IdlePowerW = 0.1
	sp.NoiseSigmaW = 50 // huge noise to force clamping
	c, _ := New(sp, 3)
	s := c.Server(0)
	for i := 0; i < 1000; i++ {
		if p := s.SamplePower(); p < 0 {
			t.Fatalf("negative power sample %v", p)
		}
	}
}

func TestNoiseStreamsDifferAcrossServers(t *testing.T) {
	c, _ := New(DefaultSpec(), 7)
	a, b := c.Server(0), c.Server(1)
	same := true
	for i := 0; i < 20; i++ {
		if a.SamplePower() != b.SamplePower() {
			same = false
		}
	}
	if same {
		t.Error("two servers produced identical noise streams")
	}
}

// Property: draw is always within [0, max(demand, cap clamp)] and utilization
// within [0, 1] for any sequence of allocations within capacity.
func TestPowerBoundsProperty(t *testing.T) {
	sp := testSpec()
	f := func(allocs []uint8, capRaw uint16) bool {
		c, err := New(sp, 1)
		if err != nil {
			return false
		}
		s := c.Server(0)
		for _, a := range allocs {
			n := int(a) % (sp.Containers + 1)
			if n > s.FreeContainers() {
				n = s.FreeContainers()
			}
			s.Allocate(n, float64(n))
			if u := s.Utilization(); u < 0 || u > 1 {
				return false
			}
			if d := s.DrawW(); d < sp.IdlePowerW-1e-9 || d > sp.RatedPowerW+1e-9 {
				return false
			}
		}
		capW := float64(capRaw%300) + 1
		s.ApplyCap(capW)
		if d := s.DrawW(); d > capW+1e-9 && d > s.DemandW() {
			return false
		}
		if sp2 := s.Speed(); sp2 <= 0 || sp2 > 1 {
			return false
		}
		s.RemoveCap()
		return s.Speed() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRatedJitter(t *testing.T) {
	sp := testSpec()
	sp.RatedJitterFrac = 0.05
	c, err := New(sp, 9)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, sv := range c.Servers {
		r := sv.RatedW()
		if r < sp.RatedPowerW*0.95-1e-9 || r > sp.RatedPowerW*1.05+1e-9 {
			t.Fatalf("server %d rated %v outside ±5%%", sv.ID, r)
		}
		// Idle scales with the same factor.
		if ratio := sv.IdleW() / r; math.Abs(ratio-sp.IdlePowerW/sp.RatedPowerW) > 1e-9 {
			t.Fatalf("server %d idle/rated ratio %v", sv.ID, ratio)
		}
		if r != sp.RatedPowerW {
			varied = true
		}
		// Power model respects per-server bounds.
		sv.Allocate(sp.Containers, float64(sp.Containers))
		if got := sv.DemandW(); math.Abs(got-r) > 1e-9 {
			t.Fatalf("full demand %v, want per-server rated %v", got, r)
		}
		sv.Release(sp.Containers, float64(sp.Containers))
		if got := sv.DemandW(); math.Abs(got-sv.IdleW()) > 1e-9 {
			t.Fatalf("idle demand %v, want %v", got, sv.IdleW())
		}
	}
	if !varied {
		t.Error("jitter produced identical servers")
	}
	// Nominal stays the spec sum.
	if got := sp.RowRatedPowerW(); got != float64(sp.ServersPerRow())*sp.RatedPowerW {
		t.Errorf("nominal rated %v", got)
	}
	// Validation bounds.
	bad := testSpec()
	bad.RatedJitterFrac = 0.6
	if err := bad.Validate(); err == nil {
		t.Error("jitter 0.6 accepted")
	}
	bad.RatedJitterFrac = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative jitter accepted")
	}
}
