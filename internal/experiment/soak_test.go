package experiment

import (
	"testing"

	"repro/internal/capping"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// A chaos soak: random freezes/unfreezes, server failures and
// repairs, and DVFS capping all interleave for simulated hours. The test
// asserts only global invariants — nothing is lost or double-counted, the
// availability index stays exact, and utilization bookkeeping balances —
// the properties every experiment in this repository silently relies on.
func TestChaosSoak(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(sim.Time(seed).String(), func(t *testing.T) {
			runChaosSoak(t, seed)
		})
	}
}

func runChaosSoak(t *testing.T, seed uint64) {
	spec := cluster.DefaultSpec()
	spec.Rows = 2
	spec.RacksPerRow = 2
	spec.ServersPerRack = 10 // 40 servers
	prod := workload.DefaultProduct("chaos", 120)
	rig, err := stack.New(stack.Config{Seed: seed, Cluster: spec, Products: []workload.Product{prod}})
	if err != nil {
		t.Fatal(err)
	}

	// Capping adds continuous speed changes (completion rescheduling).
	capper, err := capping.New(rig.Eng, capping.DefaultConfig(), capping.RowDomains(rig.Cluster,
		[]float64{spec.RowRatedPowerW() * 0.85, spec.RowRatedPowerW() * 0.85}))
	if err != nil {
		t.Fatal(err)
	}

	rng := sim.SubRNG(seed, "chaos")
	n := len(rig.Cluster.Servers)
	frozen := map[cluster.ServerID]bool{}
	failed := map[cluster.ServerID]bool{}

	// Every 30 seconds, perform a random disruptive operation.
	chaos := rig.Eng.Every(sim.Time(30*sim.Second), 30*sim.Second, "chaos-op", func(now sim.Time) {
		id := cluster.ServerID(rng.Intn(n))
		switch rng.Intn(5) {
		case 0:
			if !frozen[id] && !failed[id] {
				if err := rig.Sched.Freeze(id); err == nil {
					frozen[id] = true
				}
			}
		case 1:
			if frozen[id] {
				if err := rig.Sched.Unfreeze(id); err == nil {
					delete(frozen, id)
				}
			}
		case 2:
			if !failed[id] && len(failed) < n/4 {
				if err := rig.Sched.FailServer(id); err == nil {
					failed[id] = true
				}
			}
		case 3:
			if failed[id] {
				if err := rig.Sched.RepairServer(id); err == nil {
					delete(failed, id)
				}
			}
		default: // breathe
		}
	})

	rig.StartBase()
	capper.Start()
	if err := rig.Run(sim.Time(3 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	// Stop disruptions and generation; let everything drain.
	rig.Eng.Cancel(chaos)
	rig.Gen.Stop()
	capper.Stop()
	for id := range frozen {
		if err := rig.Sched.Unfreeze(id); err != nil {
			t.Fatalf("final unfreeze %d: %v", id, err)
		}
	}
	for id := range failed {
		if err := rig.Sched.RepairServer(id); err != nil {
			t.Fatalf("final repair %d: %v", id, err)
		}
	}
	if err := rig.Run(sim.Time(8 * sim.Hour)); err != nil {
		t.Fatal(err)
	}

	st := rig.Sched.Stats()
	if st.Submitted == 0 || st.Killed == 0 {
		t.Fatalf("soak too tame: submitted=%d killed=%d", st.Submitted, st.Killed)
	}
	// Conservation: everything submitted was placed; everything placed
	// either completed or was killed by a failure; nothing remains.
	if st.Placed != st.Submitted {
		t.Errorf("placed %d != submitted %d (queue %d)", st.Placed, st.Submitted, rig.Sched.QueueLen())
	}
	if st.Completed+st.Killed != st.Placed {
		t.Errorf("completed %d + killed %d != placed %d", st.Completed, st.Killed, st.Placed)
	}
	if rig.Sched.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", rig.Sched.QueueLen())
	}
	// Every server back to empty, and bookkeeping balances to zero.
	for _, sv := range rig.Cluster.Servers {
		if sv.Busy() != 0 {
			t.Errorf("server %d busy %d after drain", sv.ID, sv.Busy())
		}
		if sv.Frozen() || sv.Failed() || sv.Capped() {
			t.Errorf("server %d state frozen=%v failed=%v capped=%v",
				sv.ID, sv.Frozen(), sv.Failed(), sv.Capped())
		}
	}
	for r := 0; r < rig.Cluster.Rows(); r++ {
		if u := rig.Sched.RowUtilization(r); u != 0 {
			t.Errorf("row %d utilization %v after drain", r, u)
		}
		want := 0
		for _, sv := range rig.Cluster.Row(r) {
			if !sv.Frozen() && !sv.Failed() && sv.FreeContainers() >= 1 {
				want++
			}
		}
		if got := rig.Sched.AvailableInRow(r); got != want {
			t.Errorf("row %d availability index %d, want %d", r, got, want)
		}
	}
}
