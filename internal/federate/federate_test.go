package federate

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// testConfig is a small heterogeneous federation: four 80-server-row DCs
// with staggered peaks and loads so the coordinator has real headroom to
// move, at a size tier-1 can afford under -race.
func testConfig(workers int) Config {
	return Config{
		Seed: 42,
		DCs: []DCSpec{
			{Name: "us-east", Rows: 1, RowServers: 80, TargetFrac: 0.88, PeakHour: 14, ReservePerServer: 2},
			{Name: "eu-west", Rows: 1, RowServers: 80, TargetFrac: 0.70, PeakHour: 20, ReservePerServer: 2},
			{Name: "ap-south", Rows: 1, RowServers: 80, TargetFrac: 0.55, PeakHour: 2},
			{Name: "sa-east", Rows: 1, RowServers: 80, TargetFrac: 0.45, PeakHour: 8},
		},
		CadenceEpochs: 5,
		DelayEpochs:   1,
		Workers:       workers,
	}
}

// run advances a federation through two phases with a mid-run operator
// headroom shift between them, returning the deterministic fingerprint.
func run(t *testing.T, workers int) string {
	t.Helper()
	f, err := New(testConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Advance(8); err != nil {
		t.Fatal(err)
	}
	moved, err := f.ShiftBudget(3, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if moved <= 0 {
		t.Fatalf("ShiftBudget moved %v W, want >0", moved)
	}
	if _, err := f.Advance(8); err != nil {
		t.Fatal(err)
	}
	return f.Fingerprint()
}

// TestFederatedTickByteIdentity is the §7/§11 contract at the federation
// level: the full observable history — telemetry of every epoch, the
// coordinator's reallocations, and a mid-run operator shift — is
// byte-identical at shard worker counts {1, 2, 4, ncpu} and at the default
// (0 = GOMAXPROCS). Run under -race this also proves the shard-ownership
// rule: workers never touch another shard's state.
func TestFederatedTickByteIdentity(t *testing.T) {
	ref := run(t, 1)
	if ref == "" {
		t.Fatal("empty fingerprint")
	}
	cases := []struct {
		name    string
		workers int
	}{
		{"workers=2", 2},
		{"workers=4", 4},
		{"workers=ncpu", runtime.GOMAXPROCS(0)},
		{"workers=0", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, tc.workers); got != ref {
				t.Errorf("fingerprint diverges from serial reference:\nserial:\n%s\ngot:\n%s", ref, got)
			}
		})
	}
}

// TestFingerprintPinned pins the two-phase run's fingerprint to its SHA-256:
// the byte-identity test above only compares runs of the same build, so a
// change to how a shard is wired would move every run together and pass it.
// Re-pin only when a behaviour change is intended.
func TestFingerprintPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; FMA fusing changes float bytes elsewhere")
	}
	const want = "fc49259fac1e2abf7d8d5169713fe1d4607f517e64375ed3183ecf252945db34"
	fp := run(t, 2)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != want {
		t.Errorf("fingerprint digest %s (%d bytes), pinned %s (3985 bytes)", got, len(fp), want)
	}
}

// TestShardIsAStack checks that a DC adds nothing to its stack but the
// controller: a bare stack.New from the DC's sub-seed, layout and product,
// advanced minute by minute, reports exactly the scheduler counters and row
// power of a one-DC federation whose base budget never forces a freeze.
func TestShardIsAStack(t *testing.T) {
	const seed, name, rowServers, target = 11, "solo", 80, 0.75
	f, err := New(Config{Seed: seed, DCs: []DCSpec{
		{Name: name, Rows: 1, RowServers: rowServers, TargetFrac: target},
	}})
	if err != nil {
		t.Fatal(err)
	}
	spec := stack.RowSpec(1, rowServers)
	st, err := stack.New(stack.Config{
		Seed:    sim.SubSeed(seed, "dc/"+name),
		Cluster: spec,
		Products: []workload.Product{
			workload.DefaultProduct(name, stack.JobsPerMinute(spec, target, spec.TotalServers()))},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.StartBase()
	dc := f.DCs[0]
	for e := 1; e <= 45; e++ {
		if _, err := f.Advance(1); err != nil {
			t.Fatal(err)
		}
		if err := st.Run(sim.Time(e) * sim.Time(sim.Minute)); err != nil {
			t.Fatal(err)
		}
		if got, want := dc.Sched.Stats(), st.Sched.Stats(); got != want {
			t.Fatalf("epoch %d: shard scheduler %+v, bare stack %+v", e, got, want)
		}
		gotP, gotOK := dc.Mon.RowPower(0)
		wantP, wantOK := st.Mon.RowPower(0)
		if gotP != wantP || gotOK != wantOK {
			t.Fatalf("epoch %d: shard row power %v (%v), bare stack %v (%v)", e, gotP, gotOK, wantP, wantOK)
		}
	}
	if st.Sched.Stats().Completed == 0 {
		t.Error("no job completed; the comparison covered nothing")
	}
	for e, tm := range f.Telemetry(0) {
		if tm.Frozen != 0 {
			t.Fatalf("epoch %d froze %d servers; the run no longer isolates the stack", e, tm.Frozen)
		}
	}
}

// TestReallocationShiftsHeadroom drives a hot/cold pair past several cadence
// boundaries and checks the water-fill moved budget from the idle DC toward
// the saturated one while conserving the pool.
func TestReallocationShiftsHeadroom(t *testing.T) {
	cfg := Config{
		Seed: 7,
		DCs: []DCSpec{
			{Name: "hot", Rows: 1, RowServers: 80, TargetFrac: 0.95},
			{Name: "cold", Rows: 1, RowServers: 80, TargetFrac: 0.40},
		},
		CadenceEpochs: 5,
		DelayEpochs:   1,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Advance(25); err != nil {
		t.Fatal(err)
	}
	hot, cold := f.Allocation(0), f.Allocation(1)
	if hot <= f.BaseBudget(0) {
		t.Errorf("hot DC allocation %.0f W did not rise above base %.0f W", hot, f.BaseBudget(0))
	}
	if cold >= f.BaseBudget(1) {
		t.Errorf("cold DC allocation %.0f W did not fall below base %.0f W", cold, f.BaseBudget(1))
	}
	if pool := f.BaseBudget(0) + f.BaseBudget(1); hot+cold > pool*(1+1e-9) {
		t.Errorf("allocations %.0f W exceed pool %.0f W", hot+cold, pool)
	}
	if hot > 1.5*f.BaseBudget(0) {
		t.Errorf("hot allocation %.0f W exceeds cap %.0f W", hot, 1.5*f.BaseBudget(0))
	}
}

// TestShiftBudgetWANDelay pins command delivery: an operator shift issued at
// epoch E lands at the start of epoch E+DelayEpochs, not before.
func TestShiftBudgetWANDelay(t *testing.T) {
	cfg := testConfig(1)
	cfg.DelayEpochs = 2
	cfg.CadenceEpochs = 1000 // keep the coordinator quiet
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Advance(2); err != nil {
		t.Fatal(err)
	}
	before := f.Allocation(0)
	moved, err := f.ShiftBudget(1, 0, 500)
	if err != nil || moved <= 0 {
		t.Fatalf("shift: moved=%v err=%v", moved, err)
	}
	// The command spends DelayEpochs full epochs on the WAN: issued at the
	// boundary entering epoch E, it lands at the start of epoch E+2.
	for k := 0; k < 2; k++ {
		if _, err := f.Advance(1); err != nil {
			t.Fatal(err)
		}
		if got := f.Allocation(0); got != before {
			t.Errorf("allocation changed %d epoch(s) after issue (%.0f → %.0f W), delay is 2", k+1, before, got)
		}
	}
	if _, err := f.Advance(1); err != nil {
		t.Fatal(err)
	}
	if got := f.Allocation(0); got != before+moved {
		t.Errorf("allocation %.0f W after delay, want %.0f", got, before+moved)
	}
}

// TestPinnedServiceLoad checks the build-time seeding: every server in a
// ReservePerServer DC holds its pinned containers after New.
func TestPinnedServiceLoad(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 2, 0, 0} {
		for _, sv := range f.DCs[i].Cluster.Servers {
			if sv.Busy() < want {
				t.Fatalf("DC %d server %d busy %d, want ≥%d pinned", i, sv.ID, sv.Busy(), want)
			}
			if want == 0 && sv.Busy() != 0 {
				t.Fatalf("DC %d server %d busy %d before any load", i, sv.ID, sv.Busy())
			}
		}
	}
}

// TestFamilies sanity-checks the preset scenario families.
func TestFamilies(t *testing.T) {
	for _, name := range []string{"uniform", "follow-the-sun", "hotspot"} {
		dcs, err := Family(name, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(dcs) != 8 {
			t.Fatalf("%s: %d DCs, want 8", name, len(dcs))
		}
		if err := (Config{Seed: 1, DCs: dcs}.withDefaults()).Validate(); err != nil {
			t.Errorf("%s: invalid family: %v", name, err)
		}
	}
	if _, err := Family("nope", 4, 1); err == nil {
		t.Error("unknown family accepted")
	}
	seen := map[float64]bool{}
	dcs, _ := Family("follow-the-sun", 8, 1)
	for _, d := range dcs {
		seen[d.PeakHour] = true
	}
	if len(seen) != 8 {
		t.Errorf("follow-the-sun has %d distinct peak hours, want 8", len(seen))
	}
}

// TestConfigValidation exercises the rejection paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{DCs: []DCSpec{{Name: "", Rows: 1}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1}, {Name: "a", Rows: 1}}},
		{DCs: []DCSpec{{Name: "a", Rows: 0}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, RowServers: 30}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, TargetFrac: 1.5}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, ReservePerServer: -1}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, ReservePerServer: 1 << 20}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, PeakHour: math.NaN()}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, PeakHour: -5}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, PeakHour: 24.5}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, PeakHour: math.Inf(1)}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, DiurnalAmplitude: math.NaN()}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, DiurnalAmplitude: -0.1}}},
		{DCs: []DCSpec{{Name: "a", Rows: 1, DiurnalAmplitude: 1.5}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestNewLeavesTheCallersSpecs: New fills its defaults into a copy, so the
// caller's DCs read as they were written.
func TestNewLeavesTheCallersSpecs(t *testing.T) {
	dcs := []DCSpec{{Name: "a", Rows: 1, RowServers: 40}, {Name: "b", Rows: 1, RowServers: 40, PeakHour: 24}}
	want := slices.Clone(dcs)
	if _, err := New(Config{Seed: 1, DCs: dcs}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dcs, want) {
		t.Errorf("New rewrote the caller's specs:\n got %+v\nwant %+v", dcs, want)
	}
}

// A federation dropped after parallel epochs is garbage: no parked shard
// worker holds it (a federation per experiment run would otherwise never be
// freed). The finalizer sits on a sentinel that only a DC monitor's callback
// list reaches, because the federation's structures are cyclic and a
// finalizer on an object of a cycle never runs. A sentinel is 32 bytes
// because a pointer-free object under 16 shares a block of the tiny
// allocator with whatever else is live, and then its finalizer may never run.
func TestFederationPinsNothing(t *testing.T) {
	type sentinel struct {
		calls int
		_     [3]int
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	collected := make(chan struct{}, 1)
	func() {
		cfg := testConfig(0)
		cfg.DCs = cfg.DCs[:3]
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := new(sentinel)
		runtime.SetFinalizer(s, func(*sentinel) { collected <- struct{}{} })
		f.DCs[0].Mon.OnSample(func(sim.Time) { s.calls++ })
		if _, err := f.Advance(3); err != nil {
			t.Fatal(err)
		}
		if s.calls == 0 {
			t.Fatal("DC 0's monitor never swept")
		}
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(100 * time.Millisecond):
			if i == 20 {
				t.Fatal("the federation was not collected after repeated GCs")
			}
		}
	}
}
