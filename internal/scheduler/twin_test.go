package scheduler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stormTwinSHA is the digest of stormDigest taken on the scheduler that
// still carried gang jobs and their fit machinery, itself the twin of the
// tree before the event core and the scheduler's job storage were rebuilt
// (container/heap engine, map-backed run lists, pointer jobs). The current
// scheduler is their twin: same completion order, same float rounding.
const stormTwinSHA = "50aa19d01f029935968b009a4557ed5e70fd22a212232b4ec8b11dbafefabd0d"

// stormDigest runs a DVFS-cap and server-failure storm on one 80-server row
// under generated load and hashes everything the order of the per-server run
// lists decides: each completion as (time, job, server), then every server's
// busy count and utilization bits, then the counters and the queue-wait tail.
//
// Run-list order is load-bearing: speedChanged walks a server's list and
// reschedules each completion, so list order assigns the engine's seq
// numbers, which order completions that land on the same millisecond, which
// order the float subtractions from the server's CPU load.
//
// probe, when not nil, is called with the scheduler at every storm tick,
// before the tick's own work.
func stormDigest(t *testing.T, probe func(s *Scheduler)) string {
	t.Helper()
	eng := sim.NewEngine()
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 1, 4, 20
	c, err := cluster.New(sp, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, c, 7, nil)

	h := sha256.New()
	var buf [24]byte
	put := func(a, b, c uint64) {
		binary.LittleEndian.PutUint64(buf[0:], a)
		binary.LittleEndian.PutUint64(buf[8:], b)
		binary.LittleEndian.PutUint64(buf[16:], c)
		h.Write(buf[:])
	}
	s.OnComplete(func(id int64, sv *cluster.Server) {
		put(uint64(eng.Now()), uint64(id), uint64(sv.ID))
	})

	n := float64(len(c.Servers))
	rate := workload.RateForPowerFraction(0.85, sp.IdlePowerW, sp.RatedPowerW, sp.Containers, 8.13, 1.0)
	single := workload.DefaultProduct("single", rate*n)
	gen, err := workload.NewGenerator(eng, 7, []workload.Product{single}, workload.DefaultDurations(), s.Submit)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()

	r := sim.SubRNG(7, "storm")
	pick := func() *cluster.Server { return c.Servers[r.Intn(len(c.Servers))] }
	eng.Every(sim.Time(5*sim.Minute), 7*sim.Second, "storm", func(sim.Time) {
		if probe != nil {
			probe(s)
		}
		sv := pick()
		switch x := r.Float64(); {
		case x < 0.45:
			// Anywhere from below idle (the 10 % frequency floor) to rated.
			sv.ApplyCap(sv.IdleW()*0.9 + r.Float64()*(sv.RatedW()-sv.IdleW()*0.9))
		case x < 0.75:
			sv.RemoveCap()
		case x < 0.85:
			if !sv.Failed() {
				if err := s.FailServer(sv.ID); err != nil {
					t.Error(err)
				}
			}
		case x < 0.95:
			if sv.Failed() {
				if err := s.RepairServer(sv.ID); err != nil {
					t.Error(err)
				}
			}
		default:
			// Freeze half the row for a while so the FIFO queue fills and
			// drains through completions.
			var frozen []cluster.ServerID
			for _, v := range c.Servers[:len(c.Servers)/2] {
				if !v.Frozen() && s.Freeze(v.ID) == nil {
					frozen = append(frozen, v.ID)
				}
			}
			eng.After(3*sim.Minute, "thaw", func(sim.Time) {
				for _, id := range frozen {
					if err := s.Unfreeze(id); err != nil {
						t.Error(err)
					}
				}
			})
		}
	})
	if err := eng.RunUntil(sim.Time(3 * sim.Hour)); err != nil {
		t.Fatal(err)
	}

	for _, sv := range c.Servers {
		put(uint64(sv.ID), uint64(sv.Busy()), math.Float64bits(sv.Utilization()))
		put(uint64(s.RunningJobs(sv.ID)), math.Float64bits(sv.Speed()), 0)
	}
	st := s.Stats()
	put(uint64(st.Submitted), uint64(st.Placed), uint64(st.Completed))
	put(uint64(st.Queued), uint64(st.Killed), uint64(st.Overflowed))
	put(uint64(s.QueueLen()), uint64(s.QueueWaits()), uint64(s.QueueWaitQuantile(0.99)))
	put(math.Float64bits(s.StretchQuantile(0.5)), math.Float64bits(s.StretchQuantile(0.99)), eng.Steps())
	if st.Completed < 10000 || st.Killed == 0 || s.QueueWaits() == 0 || s.StretchQuantile(0.99) <= 1 {
		t.Fatalf("storm too tame to pin anything: %+v, %d waits, p99 stretch %v",
			st, s.QueueWaits(), s.StretchQuantile(0.99))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestStormTwinPinned(t *testing.T) {
	if got := stormDigest(t, nil); got != stormTwinSHA {
		t.Errorf("storm digest %s, pinned %s: completion order or CPU-load rounding moved", got, stormTwinSHA)
	}
}

// The completion lane's touch hook only loads, whatever slot it is handed.
// At every tick of the storm (failure kills, DVFS reschedules, more running
// jobs than servers) it is called on every slot of the slab, as ahead and as
// near: live slots, slots reused since their entry was scheduled, and free
// ones whose server field is a free-list link past the fleet or −1. It must
// not panic, and the storm's digest must stay pinned.
func TestTouchOnDeadEntriesWritesNothing(t *testing.T) {
	var live, past, end, laneTouched int
	last := uint64(0)
	got := stormDigest(t, func(s *Scheduler) {
		if s.touched != last {
			laneTouched++ // the lane's own touch ran since the last tick
		}
		all := make([]int32, s.run.Len())
		for i := range all {
			all[i] = int32(i)
			switch rj := s.run.At(int32(i)); {
			case rj.seq != noSeq:
				live++
			case rj.server < 0:
				end++
			case int(rj.server) >= len(s.srv):
				past++
			}
		}
		s.touch(all, all)
		last = s.touched
	})
	if got != stormTwinSHA {
		t.Errorf("storm digest %s with every slot touched, pinned %s: a touch wrote to the scheduler", got, stormTwinSHA)
	}
	if live == 0 || past == 0 || end == 0 || laneTouched == 0 {
		t.Errorf("touched %d live slots, %d free ones linking past the fleet, %d ending the free list; the lane touched on %d ticks: a case went untested",
			live, past, end, laneTouched)
	}
}
