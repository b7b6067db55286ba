package chaos

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// fakeReader is a timed power source for the servers of group: server id
// draws value()+id, which tracks simulated time, so staleness is observable.
type fakeReader struct {
	eng  *sim.Engine
	snap []float64
}

func (f *fakeReader) value() float64 { return 100 + float64(f.eng.Now())/float64(sim.Minute) }

func (f *fakeReader) PowerSnapshot() ([]float64, bool) {
	f.snap = f.snap[:0]
	for _, id := range group {
		f.snap = append(f.snap, f.value()+float64(id))
	}
	return f.snap, true
}

func (f *fakeReader) GroupPower(ids []cluster.ServerID) (float64, bool) {
	total := 0.0
	for _, id := range ids {
		total += f.value() + float64(id)
	}
	return total, true
}

func (f *fakeReader) RangePower(lo, hi cluster.ServerID) (float64, bool) {
	total := 0.0
	for id := lo; id <= hi; id++ {
		total += f.value() + float64(id)
	}
	return total, true
}

func (f *fakeReader) GroupSampleTime([]cluster.ServerID) (sim.Time, bool) { return f.eng.Now(), true }

// fakeAPI records calls and never fails on its own.
type fakeAPI struct{ freezes, unfreezes int }

func (f *fakeAPI) Freeze(cluster.ServerID) error   { f.freezes++; return nil }
func (f *fakeAPI) Unfreeze(cluster.ServerID) error { f.unfreezes++; return nil }

var group = []cluster.ServerID{0, 1, 2, 3}

func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{Faults: []Fault{{Kind: ReadBlackout, From: 10, To: 10}}},
		{Faults: []Fault{{Kind: ReadNaN, From: 0, To: 10, Rate: 1.5}}},
		{Faults: []Fault{{Kind: ReadNaN, From: 0, To: 10, Rate: 0}}},
		{Faults: []Fault{{Kind: ReadOutlier, From: 0, To: 10, Rate: 0.5, Factor: -2}}},
		{Faults: []Fault{{Kind: ReadLag, From: 0, To: 10}}},
		{Faults: []Fault{{Kind: APILatency, From: 0, To: 10}}},
		{Faults: []Fault{{Kind: Kind("nonsense"), From: 0, To: 10}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: expected validation error", i)
		}
	}
	good := Plan{Seed: 1, Faults: []Fault{
		{Kind: ReadBlackout, From: 0, To: sim.Time(sim.Hour)},
		{Kind: APITransient, From: 0, To: sim.Time(sim.Hour), Rate: 0.5},
		{Kind: StoreReject, From: 0, To: sim.Time(sim.Hour)},
		{Kind: CtlCrash, From: 0, To: sim.Time(sim.Hour)},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	if got := len(good.Crashes()); got != 1 {
		t.Fatalf("Crashes() = %d faults, want 1", got)
	}
}

func TestBlackoutFreezesSnapshotAndTimestamp(t *testing.T) {
	eng := sim.NewEngine()
	in, err := New(eng, Plan{Seed: 7, Faults: []Fault{
		{Kind: ReadBlackout, From: sim.Time(10 * sim.Minute), To: sim.Time(20 * sim.Minute)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := in.WrapReader(&fakeReader{eng: eng})

	type obs struct {
		v  float64
		at sim.Time
		ok bool
	}
	read := func() obs {
		v, ok := r.GroupPower(group)
		at, tok := r.GroupSampleTime(group)
		return obs{v: v, at: at, ok: ok && tok}
	}
	var before, during, after obs
	eng.At(sim.Time(9*sim.Minute), "t9", func(sim.Time) { before = read() })
	eng.At(sim.Time(15*sim.Minute), "t15", func(sim.Time) { during = read() })
	eng.At(sim.Time(25*sim.Minute), "t25", func(sim.Time) { after = read() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	if !before.ok || before.at != sim.Time(9*sim.Minute) {
		t.Fatalf("pre-blackout read unhealthy: %+v", before)
	}
	if !during.ok {
		t.Fatalf("blackout read should serve the frozen snapshot, got %+v", during)
	}
	if during.v != before.v || during.at != before.at {
		t.Fatalf("blackout should freeze value and timestamp: before %+v during %+v", before, during)
	}
	if !after.ok || after.at != sim.Time(25*sim.Minute) || after.v == before.v {
		t.Fatalf("post-blackout read should be fresh again: %+v", after)
	}
	if in.Stats().ReadsBlackedOut == 0 {
		t.Fatal("ReadsBlackedOut not counted")
	}
}

func TestBlackoutBeforeFirstSampleReturnsNotOK(t *testing.T) {
	eng := sim.NewEngine()
	in, err := New(eng, Plan{Faults: []Fault{
		{Kind: ReadBlackout, From: 0, To: sim.Time(10 * sim.Minute)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := in.WrapReader(&fakeReader{eng: eng})
	if _, ok := r.GroupPower(group); ok {
		t.Fatal("blackout with no cached sample must report not-ok")
	}
	// A snapshot that is not ok ranks every server last.
	if _, ok := r.PowerSnapshot(); ok {
		t.Fatal("server snapshot during blackout with no cache must report not-ok")
	}
}

func TestBlackoutFreezesServerSnapshot(t *testing.T) {
	eng := sim.NewEngine()
	in, err := New(eng, Plan{Seed: 7, Faults: []Fault{
		{Kind: ReadBlackout, From: sim.Time(10 * sim.Minute), To: sim.Time(20 * sim.Minute)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := in.WrapReader(&fakeReader{eng: eng})
	var before, during, after []float64
	read := func(dst *[]float64) func(sim.Time) {
		return func(sim.Time) {
			vals, ok := r.PowerSnapshot()
			if !ok {
				t.Errorf("snapshot not ok at %v", eng.Now())
			}
			*dst = append([]float64(nil), vals...)
		}
	}
	eng.At(sim.Time(9*sim.Minute), "t9", read(&before))
	eng.At(sim.Time(15*sim.Minute), "t15", read(&during))
	eng.At(sim.Time(25*sim.Minute), "t25", read(&after))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(before) != len(group) || !slices.Equal(during, before) {
		t.Fatalf("blackout should serve the pre-blackout snapshot: before %v during %v", before, during)
	}
	if slices.Equal(after, before) {
		t.Fatalf("post-blackout snapshot should be fresh again: %v", after)
	}
	if st := in.Stats(); st != (Stats{}) {
		t.Fatalf("server snapshots counted in stats: %+v", st)
	}
}

func TestServerFaultsAtRateOneHitEveryServer(t *testing.T) {
	window := func(k Kind) Fault {
		return Fault{Kind: k, From: 0, To: sim.Time(sim.Hour), Rate: 1, Factor: 3}
	}
	for _, k := range []Kind{ReadNaN, ReadOutlier} {
		eng := sim.NewEngine()
		in, err := New(eng, Plan{Seed: 3, Faults: []Fault{window(k)}})
		if err != nil {
			t.Fatal(err)
		}
		inner := &fakeReader{eng: eng}
		clean, _ := inner.PowerSnapshot()
		clean = append([]float64(nil), clean...)
		vals, ok := in.WrapReader(inner).PowerSnapshot()
		if !ok || len(vals) != len(clean) {
			t.Fatalf("%s: snapshot %v ok=%v", k, vals, ok)
		}
		for id, v := range vals {
			if k == ReadNaN && !math.IsNaN(v) || k == ReadOutlier && v != 3*clean[id] {
				t.Errorf("%s: server %d reads %v, clean %v", k, id, v, clean[id])
			}
		}
		if st := in.Stats(); st != (Stats{}) {
			t.Errorf("%s: server snapshot counted in stats: %+v", k, st)
		}
	}
}

// TestRangePowerIsGroupPowerOverTheRange: one plan through each read path
// gives the same readings, timestamps and statistics.
func TestRangePowerIsGroupPowerOverTheRange(t *testing.T) {
	plan := Plan{Seed: 13, Faults: []Fault{
		{Kind: ReadNaN, From: 0, To: sim.Time(sim.Hour), Rate: 0.2},
		{Kind: ReadOutlier, From: 0, To: sim.Time(sim.Hour), Rate: 0.3, Factor: 2},
		{Kind: ReadBlackout, From: sim.Time(20 * sim.Minute), To: sim.Time(30 * sim.Minute)},
		{Kind: ReadLag, From: sim.Time(40 * sim.Minute), To: sim.Time(50 * sim.Minute), Lag: sim.Minute},
	}}
	type obs struct {
		v  float64
		at sim.Time
		ok bool
	}
	run := func(ranged bool) ([]obs, Stats) {
		eng := sim.NewEngine()
		in, err := New(eng, plan)
		if err != nil {
			t.Fatal(err)
		}
		r := in.WrapReader(&fakeReader{eng: eng})
		var out []obs
		for i := 0; i < 60; i++ {
			eng.At(sim.Time(i)*sim.Time(sim.Minute), "probe", func(sim.Time) {
				var o obs
				if ranged {
					o.v, o.ok = r.RangePower(group[0], group[len(group)-1])
				} else {
					o.v, o.ok = r.GroupPower(group)
				}
				o.at, _ = r.GroupSampleTime(group)
				out = append(out, o)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return out, in.Stats()
	}
	grp, grpStats := run(false)
	rng, rngStats := run(true)
	for i := range grp {
		g, r := grp[i], rng[i]
		same := g.ok == r.ok && g.at == r.at &&
			(g.v == r.v || math.IsNaN(g.v) && math.IsNaN(r.v))
		if !same {
			t.Fatalf("minute %d: GroupPower %+v, RangePower %+v", i, g, r)
		}
	}
	if grpStats != rngStats {
		t.Fatalf("stats differ: GroupPower %+v, RangePower %+v", grpStats, rngStats)
	}
	if grpStats.ReadsNaN == 0 || grpStats.ReadsOutlier == 0 || grpStats.ReadsBlackedOut == 0 || grpStats.ReadsLagged == 0 {
		t.Fatalf("plan left a fault kind unexercised: %+v", grpStats)
	}
}

func TestNaNAndOutlierRates(t *testing.T) {
	eng := sim.NewEngine()
	in, err := New(eng, Plan{Seed: 42, Faults: []Fault{
		{Kind: ReadNaN, From: 0, To: sim.Time(sim.Hour), Rate: 0.3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := in.WrapReader(&fakeReader{eng: eng})
	nan := 0
	const n = 2000
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Time(sim.Second)
		eng.At(at, "probe", func(sim.Time) {
			if v, ok := r.GroupPower(group); ok && math.IsNaN(v) {
				nan++
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	frac := float64(nan) / n
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("NaN fraction %.3f far from configured 0.3", frac)
	}
}

func TestFaultDecisionsAreTimeDeterministic(t *testing.T) {
	// Two injectors with the same plan must corrupt the same instants even
	// when one of them is queried more often — the property that makes the
	// naive-vs-resilient comparison fair.
	plan := Plan{Seed: 99, Faults: []Fault{
		{Kind: ReadNaN, From: 0, To: sim.Time(sim.Hour), Rate: 0.4},
	}}
	run := func(extraReads bool) []bool {
		eng := sim.NewEngine()
		in, err := New(eng, plan)
		if err != nil {
			t.Fatal(err)
		}
		r := in.WrapReader(&fakeReader{eng: eng})
		var out []bool
		for i := 0; i < 200; i++ {
			eng.At(sim.Time(i)*sim.Time(sim.Minute), "probe", func(sim.Time) {
				if extraReads {
					r.GroupPower(group) // extra call must not shift later outcomes
				}
				v, _ := r.GroupPower(group)
				out = append(out, math.IsNaN(v))
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("minute %d: fault outcome differs between call patterns", i)
		}
	}
}

func TestAPIFaults(t *testing.T) {
	eng := sim.NewEngine()
	in, err := New(eng, Plan{Seed: 5, Faults: []Fault{
		{Kind: APIPersistent, From: 0, To: sim.Time(10 * sim.Minute)},
		{Kind: APILatency, From: sim.Time(20 * sim.Minute), To: sim.Time(30 * sim.Minute),
			Latency: 2 * sim.Second, Timeout: sim.Second},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakeAPI{}
	api := in.WrapAPI(inner)

	var errDown, errTimeout, okLater error
	eng.At(sim.Time(5*sim.Minute), "down", func(sim.Time) { errDown = api.Freeze(1) })
	eng.At(sim.Time(25*sim.Minute), "slow", func(sim.Time) { errTimeout = api.Unfreeze(1) })
	eng.At(sim.Time(40*sim.Minute), "ok", func(sim.Time) { okLater = api.Freeze(1) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	if errDown == nil {
		t.Fatal("persistent window should fail calls")
	}
	if errTimeout == nil {
		t.Fatal("latency >= timeout should fail calls")
	}
	if okLater != nil {
		t.Fatalf("call outside windows failed: %v", okLater)
	}
	if inner.freezes != 1 || inner.unfreezes != 0 {
		t.Fatalf("backend saw %d/%d calls, want 1/0", inner.freezes, inner.unfreezes)
	}
	st := in.Stats()
	if st.APIFailures != 2 || st.APILatency != 2*sim.Second {
		t.Fatalf("stats %+v", st)
	}
}

type memStore struct {
	writes int
}

func (s *memStore) Append(string, sim.Time, float64) error { s.writes++; return nil }

func TestStoreReject(t *testing.T) {
	eng := sim.NewEngine()
	in, err := New(eng, Plan{Faults: []Fault{
		{Kind: StoreReject, From: 0, To: sim.Time(10 * sim.Minute)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inner := &memStore{}
	st := in.WrapStore(inner)

	var errIn, errOut error
	eng.At(sim.Time(5*sim.Minute), "in", func(now sim.Time) { errIn = st.Append("dc", now, 1) })
	eng.At(sim.Time(15*sim.Minute), "out", func(now sim.Time) { errOut = st.Append("dc", now, 1) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if errIn == nil || errOut != nil {
		t.Fatalf("want reject-then-accept, got %v / %v", errIn, errOut)
	}
	if inner.writes != 1 || in.Stats().StoreRejects != 1 {
		t.Fatalf("writes %d rejects %d", inner.writes, in.Stats().StoreRejects)
	}
}
