package monitor

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestDropKeepsLastKnownGoodSnapshot walks sweeps manually and checks every
// dropped one leaves the snapshot — values and timestamp — exactly at the
// last successful sweep, even while the underlying cluster's power moves.
func TestDropKeepsLastKnownGoodSnapshot(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 1, 1, 4)
	cfg := DefaultConfig()
	cfg.SweepDropRate = 0.5
	cfg.DropSeed = 11
	m, err := New(eng, c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	drops, updates := 0, 0
	var prevPower float64
	var prevTime sim.Time
	for i := 1; i <= 40; i++ {
		// Shift real power every minute so a stale snapshot is detectable.
		if i%2 == 1 {
			c.Server(0).Allocate(1, 1)
		} else {
			c.Server(0).Release(1, 1)
		}
		now := sim.Time(i) * sim.Time(sim.Minute)
		before := m.Dropped()
		m.Sweep(now)
		got, ok := m.RowPower(0)
		at, _ := m.LastSampleTime()
		if m.Dropped() > before {
			if updates == 0 {
				// Dropped before anything succeeded: nothing to hold on to.
				continue
			}
			drops++
			if !ok || got != prevPower || at != prevTime {
				t.Fatalf("sweep %d dropped but snapshot moved: power %v→%v, time %v→%v",
					i, prevPower, got, prevTime, at)
			}
			continue
		}
		updates++
		if at != now {
			t.Fatalf("successful sweep %d kept old timestamp %v", i, at)
		}
		prevPower, prevTime = got, at
	}
	if drops == 0 || updates == 0 {
		t.Fatalf("seed exercised drops=%d updates=%d; need both", drops, updates)
	}
}

// rejectingStore refuses every append, simulating a TSDB outage.
type rejectingStore struct{ rejects int }

func (s *rejectingStore) Append(string, sim.Time, float64) error {
	s.rejects++
	return errStoreDown
}

var errStoreDown = fmt.Errorf("store down")

// TestStoreRejectionDoesNotStopSampling: history is best-effort — a TSDB
// that rejects every write costs the points, not the live snapshot.
func TestStoreRejectionDoesNotStopSampling(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 1, 1, 4)
	m, err := New(eng, c, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := &rejectingStore{}
	m.SetStore(st)

	m.Sweep(sim.Time(sim.Minute))
	if m.Sweeps() != 1 {
		t.Fatalf("sweep did not complete: %d", m.Sweeps())
	}
	if _, ok := m.RowPower(0); !ok {
		t.Fatal("snapshot unreadable after store rejection")
	}
	if st.rejects == 0 {
		t.Fatal("store saw no writes")
	}
	if got := m.WriteErrors(); got != int64(st.rejects) {
		t.Fatalf("WriteErrors = %d, store rejected %d", got, st.rejects)
	}
}

// nopAPI satisfies core.FreezeAPI for controller wiring.
type nopAPI struct{}

func (nopAPI) Freeze(cluster.ServerID) error   { return nil }
func (nopAPI) Unfreeze(cluster.ServerID) error { return nil }

// TestSkippedNoDataOnlyBeforeFirstSweep pins the documented failure mode of
// SweepDropRate: the controller's SkippedNoData path fires only while no
// sweep has ever succeeded. Once a snapshot exists, dropped sweeps surface
// as staleness — counted by the resilient controller, invisible to the
// naive one — never as missing data.
func TestSkippedNoDataOnlyBeforeFirstSweep(t *testing.T) {
	eng := sim.NewEngine()
	c := newCluster(t, 1, 1, 4)
	cfg := DefaultConfig()
	cfg.SweepDropRate = 0.5
	cfg.DropSeed = 11
	m, err := New(eng, c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var allIDs []cluster.ServerID
	for _, sv := range c.Row(0) {
		allIDs = append(allIDs, sv.ID)
	}
	newCtl := func(disabled bool) *core.Controller {
		ccfg := core.DefaultConfig()
		ccfg.Resilience.Disabled = disabled
		ctl, err := core.New(eng, m, nopAPI{}, ccfg,
			[]core.Domain{{Name: "row", Servers: allIDs, BudgetW: 1e6, Kr: 0.10}})
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	naive, resilient := newCtl(true), newCtl(false)

	// Before the first successful sweep: both controllers skip.
	naive.Step(0)
	resilient.Step(0)
	if naive.Stats(0).SkippedNoData != 1 || resilient.Stats(0).SkippedNoData != 1 {
		t.Fatalf("pre-sweep tick must skip: naive %+v resilient %+v",
			naive.Stats(0), resilient.Stats(0))
	}

	// Sweep until the first one survives the drop injection.
	now := sim.Time(0)
	for m.Sweeps() == 0 {
		now = now.Add(sim.Minute)
		m.Sweep(now)
	}

	// From here on, dropped sweeps must never re-trigger SkippedNoData.
	droppedSeen := false
	for i := 0; i < 30; i++ {
		now = now.Add(sim.Minute)
		before := m.Dropped()
		m.Sweep(now)
		naive.Step(now)
		resilient.Step(now)
		if m.Dropped() > before {
			droppedSeen = true
		}
	}
	if !droppedSeen {
		t.Fatal("seed produced no drops after the first success; test proves nothing")
	}
	if got := naive.Stats(0).SkippedNoData; got != 1 {
		t.Errorf("naive SkippedNoData = %d after first sweep, want 1", got)
	}
	if got := resilient.Stats(0).SkippedNoData; got != 1 {
		t.Errorf("resilient SkippedNoData = %d after first sweep, want 1", got)
	}
	// The resilient controller sees those drops as staleness instead.
	if got := resilient.Stats(0).StaleTicks; got == 0 {
		t.Error("resilient controller counted no stale ticks despite dropped sweeps")
	}
	if got := naive.Stats(0).StaleTicks; got != 0 {
		t.Errorf("naive controller counted %d stale ticks with resilience off", got)
	}
}
