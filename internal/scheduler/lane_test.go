package scheduler

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// completion is one OnComplete call.
type completion struct {
	at sim.Time
	id int64
}

// A completion entry outlives its job: once the slot has a new tenant, the
// old entry surfacing must not complete the tenant, whether the old job was
// killed by FailServer or rescheduled by a DVFS cap and uncap in one
// millisecond.
func TestStaleCompletionSparesNewTenant(t *testing.T) {
	setup := func(t *testing.T) (*sim.Engine, *cluster.Cluster, *Scheduler, *[]completion) {
		eng := sim.NewEngine()
		c := newTestCluster(t, 1, 1, 1)
		s := New(eng, c, 1, nil)
		var got []completion
		s.OnComplete(func(id int64, _ *cluster.Server) { got = append(got, completion{eng.Now(), id}) })
		return eng, c, s, &got
	}
	at := func(m int) sim.Time { return sim.Time(sim.Duration(m) * sim.Minute) }

	t.Run("after FailServer", func(t *testing.T) {
		eng, _, s, got := setup(t)
		s.Submit(batchJob(1, 10*sim.Minute, 1)) // due at 10:00
		eng.At(at(1), "kill", func(sim.Time) {
			if err := s.FailServer(0); err != nil {
				t.Fatal(err)
			}
			if err := s.RepairServer(0); err != nil {
				t.Fatal(err)
			}
			s.Submit(batchJob(2, 20*sim.Minute, 1)) // the slot's new tenant, due at 21:00
		})
		if err := eng.RunUntil(at(60)); err != nil {
			t.Fatal(err)
		}
		if s.run.Len() != 1 {
			t.Fatalf("%d slots: the tenant did not reuse the killed job's slot", s.run.Len())
		}
		want := []completion{{at(21), 2}}
		if fmt.Sprint(*got) != fmt.Sprint(want) {
			t.Errorf("completions %v, want %v", *got, want)
		}
		if st := s.Stats(); st.Killed != 1 || st.Completed != 1 || eng.Pending() != 0 {
			t.Errorf("killed %d, completed %d, %d pending; want 1, 1, 0", st.Killed, st.Completed, eng.Pending())
		}
	})

	t.Run("after cap and uncap in one millisecond", func(t *testing.T) {
		eng, c, s, got := setup(t)
		sv := c.Server(0)
		s.Submit(batchJob(1, 10*sim.Minute, 1)) // due at 10:00
		eng.At(at(2), "cap-uncap", func(sim.Time) {
			// Half speed, then full again: three entries for one job, the
			// capped one at 18:00, the live one back at 10:00.
			sv.ApplyCap(sv.IdleW() + (sv.DemandW()-sv.IdleW())*0.5)
			if sv.Speed() != 0.5 {
				t.Fatalf("capped speed %v, want 0.5", sv.Speed())
			}
			sv.RemoveCap()
		})
		eng.At(at(11), "tenant", func(sim.Time) {
			s.Submit(batchJob(2, 30*sim.Minute, 1)) // due at 41:00, past the dead entry at 18:00
		})
		if err := eng.RunUntil(at(60)); err != nil {
			t.Fatal(err)
		}
		if s.run.Len() != 1 {
			t.Fatalf("%d slots: the tenant did not reuse the completed job's slot", s.run.Len())
		}
		want := []completion{{at(10), 1}, {at(41), 2}}
		if fmt.Sprint(*got) != fmt.Sprint(want) {
			t.Errorf("completions %v, want %v", *got, want)
		}
		if eng.Pending() != 0 {
			t.Errorf("%d pending after the run", eng.Pending())
		}
	})
}

// Under a storm of caps, uncaps, same-millisecond cap-uncap pairs, failures,
// repairs and freezes, every placed job completes exactly once, on the server
// it was placed on, at the millisecond a reference computes from its work and
// its server's speed history alone, unless a failure killed it first.
func TestEveryJobCompletesOnceOnTime(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 2, 10)
	s := New(eng, c, 3, nil)

	// The reference: each running job's full-speed work left as of last, and
	// the millisecond it is due, recomputed at every speed change of its
	// server by the rounding the scheduler documents.
	type refJob struct {
		server    cluster.ServerID
		remaining float64
		last, due sim.Time
	}
	jobs := map[int64]*refJob{}
	due := func(now sim.Time, remaining, speed float64) sim.Time {
		return now.Add(max(sim.Duration(remaining/speed+0.5), 0))
	}
	s.OnPlace(func(j *workload.Job, sv *cluster.Server) {
		now := eng.Now()
		jobs[j.ID] = &refJob{sv.ID, float64(j.Work), now, due(now, float64(j.Work), sv.Speed())}
	})
	c.OnSpeedChange(func(sv *cluster.Server, old float64) {
		now := eng.Now()
		for _, rj := range jobs {
			if rj.server == sv.ID {
				rj.remaining = max(rj.remaining-float64(now.Sub(rj.last))*old, 0)
				rj.last, rj.due = now, due(now, rj.remaining, sv.Speed())
			}
		}
	})
	completed := 0
	s.OnComplete(func(id int64, sv *cluster.Server) {
		rj, ok := jobs[id]
		switch {
		case !ok:
			t.Errorf("job %d completed at %v but is not running (killed or completed before)", id, eng.Now())
		case rj.server != sv.ID || rj.due != eng.Now():
			t.Errorf("job %d completed on server %d at %v, reference: server %d at %v", id, sv.ID, eng.Now(), rj.server, rj.due)
		}
		delete(jobs, id)
		completed++
	})

	r := sim.SubRNG(3, "lane-storm")
	nextID := int64(0)
	eng.Every(0, 2*sim.Second, "submit", func(sim.Time) {
		for k := r.Intn(3); k > 0; k-- {
			nextID++
			s.Submit(batchJob(nextID, sim.Duration(5+r.Intn(10*60))*sim.Second, 0.5+r.Float64()))
		}
	})
	capLevel := func(sv *cluster.Server) float64 {
		return sv.IdleW()*0.9 + r.Float64()*(sv.RatedW()-sv.IdleW()*0.9)
	}
	killed := 0
	eng.Every(sim.Time(2*sim.Minute), 5*sim.Second, "storm", func(sim.Time) {
		sv := c.Servers[r.Intn(len(c.Servers))]
		switch x := r.Float64(); {
		case x < 0.35:
			sv.ApplyCap(capLevel(sv))
		case x < 0.6:
			sv.RemoveCap()
		case x < 0.75:
			sv.ApplyCap(capLevel(sv))
			sv.RemoveCap()
		case x < 0.8:
			if !sv.Failed() {
				for id, rj := range jobs {
					if rj.server == sv.ID {
						delete(jobs, id)
						killed++
					}
				}
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
			if sv.Frozen() {
				if err := s.Unfreeze(sv.ID); err != nil {
					t.Error(err)
				}
			} else if err := s.Freeze(sv.ID); err != nil {
				t.Error(err)
			}
		}
	})
	end := sim.Time(3 * sim.Hour)
	if err := eng.RunUntil(end); err != nil {
		t.Fatal(err)
	}
	for id, rj := range jobs {
		if rj.due <= end {
			t.Errorf("job %d due at %v on server %d never completed", id, rj.due, rj.server)
		}
	}
	st := s.Stats()
	if int64(completed) != st.Completed || int64(killed) != st.Killed {
		t.Errorf("seen %d completed, %d killed; stats say %d and %d", completed, killed, st.Completed, st.Killed)
	}
	if completed < 3000 || killed == 0 || st.Queued == 0 || s.StretchQuantile(0.99) <= 1 {
		t.Fatalf("storm too tame to test anything: %+v, p99 stretch %v", st, s.StretchQuantile(0.99))
	}
}

// The running-job record is what complete, speedChanged and FailServer read,
// and nothing else: one cache line.
func TestRunningJobFitsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(runningJob{}); n != 64 {
		t.Errorf("runningJob is %d bytes, want 64", n)
	}
}
