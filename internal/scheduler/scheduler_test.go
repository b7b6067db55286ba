package scheduler

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newTestCluster(t *testing.T, rows, racks, perRack int) *cluster.Cluster {
	t.Helper()
	sp := cluster.DefaultSpec()
	sp.Rows = rows
	sp.RacksPerRow = racks
	sp.ServersPerRack = perRack
	sp.NoiseSigmaW = 0
	c, err := cluster.New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func batchJob(id int64, work sim.Duration, cpu float64) *workload.Job {
	return &workload.Job{ID: id, Work: work, CPU: cpu, Product: -1}
}

func TestPlaceAndComplete(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 2)
	s := New(eng, c, 1, nil)

	var placedOn, completedOn cluster.ServerID
	s.OnPlace(func(j *workload.Job, sv *cluster.Server) { placedOn = sv.ID })
	s.OnComplete(func(_ int64, sv *cluster.Server) { completedOn = sv.ID })

	s.Submit(batchJob(1, 5*sim.Minute, 1))
	if got := s.Stats().Placed; got != 1 {
		t.Fatalf("placed %d, want 1", got)
	}
	if c.Server(placedOn).Busy() != 1 {
		t.Error("container not allocated")
	}
	if err := eng.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Completed; got != 1 {
		t.Fatalf("completed %d, want 1", got)
	}
	if completedOn != placedOn {
		t.Error("completed on a different server")
	}
	if c.Server(placedOn).Busy() != 0 {
		t.Error("container not released")
	}
}

func TestFreezeBlocksPlacement(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 2)
	s := New(eng, c, 1, nil)

	if err := s.Freeze(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Freeze(0); err == nil {
		t.Error("double freeze accepted")
	}
	for i := int64(0); i < 40; i++ {
		s.Submit(batchJob(i, time10m(), 1))
	}
	// Server 1 has 16 containers; 40 jobs: 16 run there, 24 queue.
	if c.Server(0).Busy() != 0 {
		t.Error("job placed on frozen server")
	}
	if c.Server(1).Busy() != 16 {
		t.Errorf("server 1 busy %d, want 16", c.Server(1).Busy())
	}
	if s.QueueLen() != 24 {
		t.Errorf("queue %d, want 24", s.QueueLen())
	}
	// Unfreezing drains the queue onto server 0.
	if err := s.Unfreeze(0); err != nil {
		t.Fatal(err)
	}
	if c.Server(0).Busy() != 16 {
		t.Errorf("server 0 busy %d after unfreeze, want 16", c.Server(0).Busy())
	}
	if s.QueueLen() != 8 {
		t.Errorf("queue %d, want 8", s.QueueLen())
	}
	if err := s.Unfreeze(0); err == nil {
		t.Error("unfreeze of unfrozen server accepted")
	}
}

func time10m() sim.Duration { return 10 * sim.Minute }

func TestFreezeDoesNotTouchRunningJobs(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 1)
	s := New(eng, c, 1, nil)
	s.Submit(batchJob(1, 10*sim.Minute, 1))
	if err := s.Freeze(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(20 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Completed != 1 {
		t.Error("running job did not complete on frozen server")
	}
}

func TestUnknownServerErrors(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 1)
	s := New(eng, c, 1, nil)
	if err := s.Freeze(99); err == nil {
		t.Error("freeze of unknown id accepted")
	}
	if err := s.Unfreeze(-1); err == nil {
		t.Error("unfreeze of negative id accepted")
	}
	if err := s.Reserve(99, 1, 1); err == nil {
		t.Error("reserve on unknown id accepted")
	}
}

func TestQueueFIFO(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 1) // 16 containers total
	s := New(eng, c, 1, nil)
	var order []int64
	s.OnPlace(func(j *workload.Job, sv *cluster.Server) { order = append(order, j.ID) })
	// Fill the server, then queue three more.
	for i := int64(0); i < 19; i++ {
		s.Submit(batchJob(i, 10*sim.Minute, 1))
	}
	if s.QueueLen() != 3 {
		t.Fatalf("queue %d, want 3", s.QueueLen())
	}
	if err := eng.RunUntil(sim.Time(sim.Hour)); err != nil {
		t.Fatal(err)
	}
	// The three queued jobs must have been placed in submission order.
	tail := order[16:]
	if len(tail) != 3 || tail[0] != 16 || tail[1] != 17 || tail[2] != 18 {
		t.Errorf("queued jobs placed in order %v", tail)
	}
}

func TestJobConservation(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 2, 2, 4)
	s := New(eng, c, 3, nil)
	gen, err := workload.NewGenerator(eng, 3, []workload.Product{workload.DefaultProduct("a", 40)},
		workload.DefaultDurations(), s.Submit)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	if err := eng.RunUntil(sim.Time(2 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	if err := eng.RunUntil(sim.Time(6 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Submitted == 0 {
		t.Fatal("no jobs submitted")
	}
	// After drain-out every submitted job completed exactly once and every
	// container is free: nothing lost, nothing duplicated.
	if st.Placed != st.Submitted || st.Completed != st.Submitted {
		t.Errorf("conservation violated: submitted=%d placed=%d completed=%d queue=%d",
			st.Submitted, st.Placed, st.Completed, s.QueueLen())
	}
	for _, sv := range c.Servers {
		if sv.Busy() != 0 {
			t.Errorf("server %d still busy=%d after drain", sv.ID, sv.Busy())
		}
	}
}

func TestPlacementProportionalToAvailability(t *testing.T) {
	// Paper §3.4: jobs scheduled to a row ∝ available servers. Freeze half
	// of row 0 and check row 0 receives ≈ 1/3 of placements (10 vs 20
	// available).
	eng := sim.NewEngine()
	c := newTestCluster(t, 2, 1, 20)
	s := New(eng, c, 5, nil)
	for i := 0; i < 10; i++ {
		if err := s.Freeze(cluster.ServerID(i)); err != nil {
			t.Fatal(err)
		}
	}
	perRow := map[int]int{}
	s.OnPlace(func(j *workload.Job, sv *cluster.Server) { perRow[sv.Row]++ })
	gen, err := workload.NewGenerator(eng, 5, []workload.Product{workload.DefaultProduct("a", 60)},
		workload.DefaultDurations(), s.Submit)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	if err := eng.RunUntil(sim.Time(3 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	total := perRow[0] + perRow[1]
	frac := float64(perRow[0]) / float64(total)
	if math.Abs(frac-1.0/3) > 0.05 {
		t.Errorf("row 0 received %.3f of jobs, want ≈0.333", frac)
	}
}

func TestProductRowAffinity(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 2, 1, 10)
	s := New(eng, c, 7, nil)
	// Product 0 pinned to row 1 only.
	s.SetProductWeights([][]float64{{0, 1}})
	perRow := map[int]int{}
	s.OnPlace(func(j *workload.Job, sv *cluster.Server) { perRow[sv.Row]++ })
	for i := int64(0); i < 100; i++ {
		j := batchJob(i, sim.Minute, 1)
		j.Product = 0
		s.Submit(j)
		eng.RunUntil(eng.Now().Add(30 * sim.Second))
	}
	if perRow[0] != 0 {
		t.Errorf("affinity violated: %d jobs on row 0", perRow[0])
	}
	if perRow[1] == 0 {
		t.Error("no jobs placed on preferred row")
	}
}

func TestOverflowWhenPreferredRowFull(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 2, 1, 1) // 1 server per row, 16 containers
	s := New(eng, c, 7, nil)
	s.SetProductWeights([][]float64{{0, 1}})
	for i := int64(0); i < 20; i++ {
		j := batchJob(i, 30*sim.Minute, 1)
		j.Product = 0
		s.Submit(j)
	}
	// 16 land on row 1, 4 overflow to row 0.
	if c.Server(1).Busy() != 16 {
		t.Errorf("preferred server busy %d", c.Server(1).Busy())
	}
	if c.Server(0).Busy() != 4 {
		t.Errorf("overflow server busy %d", c.Server(0).Busy())
	}
	if got := s.Stats().Overflowed; got != 4 {
		t.Errorf("overflowed %d, want 4", got)
	}
}

func TestSpeedChangeStretchesJobs(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 1)
	s := New(eng, c, 1, nil)
	var doneAt sim.Time
	s.OnComplete(func(int64, *cluster.Server) { doneAt = eng.Now() })
	s.Submit(batchJob(1, 10*sim.Minute, 1))

	// After 5 minutes, cap the server to half speed.
	eng.At(sim.Time(5*sim.Minute), "cap", func(sim.Time) {
		sv := c.Server(0)
		// Choose a cap yielding speed exactly 0.5.
		sp := sv.Spec()
		cap := sp.IdlePowerW + (sv.DemandW()-sp.IdlePowerW)*0.5
		sv.ApplyCap(cap)
	})
	if err := eng.RunUntil(sim.Time(sim.Hour)); err != nil {
		t.Fatal(err)
	}
	// 5 min at full speed + 5 min of work at 0.5 speed = 10 min more.
	want := sim.Time(15 * sim.Minute)
	if doneAt < want-sim.Time(sim.Second) || doneAt > want+sim.Time(sim.Second) {
		t.Errorf("job finished at %v, want ≈%v", doneAt, want)
	}
}

func TestSpeedRestoreResumesFullRate(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 1)
	s := New(eng, c, 1, nil)
	var doneAt sim.Time
	s.OnComplete(func(int64, *cluster.Server) { doneAt = eng.Now() })
	s.Submit(batchJob(1, 10*sim.Minute, 1))
	sv := c.Server(0)
	sp := sv.Spec()
	eng.At(sim.Time(2*sim.Minute), "cap", func(sim.Time) {
		sv.ApplyCap(sp.IdlePowerW + (sv.DemandW()-sp.IdlePowerW)*0.5)
	})
	eng.At(sim.Time(6*sim.Minute), "uncap", func(sim.Time) { sv.RemoveCap() })
	if err := eng.RunUntil(sim.Time(sim.Hour)); err != nil {
		t.Fatal(err)
	}
	// 2 min full + 4 min at half (2 min of work) + 6 min full = done at 12 min.
	want := sim.Time(12 * sim.Minute)
	if doneAt < want-sim.Time(sim.Second) || doneAt > want+sim.Time(sim.Second) {
		t.Errorf("job finished at %v, want ≈%v", doneAt, want)
	}
}

// Reserved containers stay held while jobs around them are placed and
// released: only a job's own container comes back when it completes.
func TestReserveAndRelease(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 1) // 16 containers
	s := New(eng, c, 1, nil)
	if err := s.Reserve(0, 15, 15); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(0, 2, 2); err == nil {
		t.Error("over-reserve accepted")
	}
	s.Submit(batchJob(1, sim.Minute, 1))
	s.Submit(batchJob(2, sim.Minute, 1))
	if s.QueueLen() != 1 || c.Server(0).Busy() != 16 {
		t.Fatalf("queue %d, busy %d; want 1 and 16", s.QueueLen(), c.Server(0).Busy())
	}
	// Job 1's completion releases its container to job 2, not the reserve.
	if err := eng.RunUntil(sim.Time(90 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if s.QueueLen() != 0 || c.Server(0).Busy() != 16 {
		t.Errorf("after one completion: queue %d, busy %d; want 0 and 16", s.QueueLen(), c.Server(0).Busy())
	}
	if err := eng.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := c.Server(0).Busy(); got != 15 {
		t.Errorf("busy %d after both jobs completed, want the 15 reserved", got)
	}
}

func TestPolicies(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	c := newTestCluster(t, 1, 1, 3)
	_ = New(eng, c, 1, nil) // registers listeners; we use servers directly
	a, b, d := c.Server(0), c.Server(1), c.Server(2)
	a.Allocate(4, 4)
	b.Allocate(8, 8)
	d.Allocate(12, 12)
	cands := []int32{int32(a.ID), int32(b.ID), int32(d.ID)}
	j := batchJob(1, sim.Minute, 1)

	counts := map[int32]int{}
	for i := 0; i < 3000; i++ {
		counts[(RandomFit{}).Pick(rng, j, cands)]++
	}
	for id, n := range counts {
		if n < 800 || n > 1200 {
			t.Errorf("RandomFit server %d picked %d of 3000", id, n)
		}
	}
	if (RandomFit{}).Name() == "" {
		t.Error("empty policy name")
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		eng := sim.NewEngine()
		sp := cluster.DefaultSpec()
		sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 2, 2, 5
		c, err := cluster.New(sp, 11)
		if err != nil {
			t.Fatal(err)
		}
		s := New(eng, c, 11, nil)
		gen, err := workload.NewGenerator(eng, 11, []workload.Product{workload.DefaultProduct("a", 30)},
			workload.DefaultDurations(), s.Submit)
		if err != nil {
			t.Fatal(err)
		}
		gen.Start()
		if err := eng.RunUntil(sim.Time(2 * sim.Hour)); err != nil {
			t.Fatal(err)
		}
		var sig int64
		for _, sv := range c.Servers {
			sig = sig*31 + int64(sv.Busy())
		}
		return s.Stats().Completed, sig
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("runs diverged: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
}

// Property: under any interleaving of engine steps, freezes, unfreezes,
// submissions, failures, repairs and reserves, the availability index, the
// run lists and the slab agree with the cluster after every operation.
func TestAvailabilityIndexProperty(t *testing.T) {
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 2, 1, 5
	sp.NoiseSigmaW = 0
	f := func(ops []uint16) bool {
		eng := sim.NewEngine()
		c, err := cluster.New(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := New(eng, c, 1, nil)
		reserved := make([]int, len(c.Servers))
		for k, op := range ops {
			id := cluster.ServerID(int(op>>3) % len(c.Servers))
			arg := int(op >> 6)
			switch op % 8 {
			case 0:
				_ = s.Freeze(id) // errors on a frozen server; fine
			case 1:
				_ = s.Unfreeze(id)
			case 2, 3:
				for i := 0; i < arg%40; i++ {
					s.Submit(batchJob(int64(k), sim.Duration(1+(arg+i)%20)*sim.Minute, 1))
				}
			case 4:
				_ = s.FailServer(id)
			case 5:
				_ = s.RepairServer(id)
			case 6:
				if n := arg % 4; s.Reserve(id, n, 0.5*float64(n)) == nil {
					reserved[id] += n
				}
			default:
				if err := eng.RunUntil(eng.Now().Add(sim.Duration(arg%10) * sim.Minute)); err != nil {
					t.Fatal(err)
				}
			}
			if err := checkIndex(s, c, reserved); err != nil {
				t.Logf("after op %d (%d): %v", k, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// checkIndex compares the scheduler's bookkeeping with the cluster: reserved
// counts the containers each server holds by Reserve.
func checkIndex(s *Scheduler, c *cluster.Cluster, reserved []int) error {
	running, listed := 0, map[int32]bool{}
	busyRow := make([]int, c.Rows())
	for _, sv := range c.Servers {
		id := int32(sv.ID)
		want := !sv.Frozen() && !sv.Failed() && sv.FreeContainers() >= 1
		pos := s.srv[id].pos
		if in := pos != -1; in != want {
			return fmt.Errorf("server %d: listed %v, schedulable %v", id, in, want)
		}
		if pos != -1 && (int(pos) >= len(s.avail[sv.Row]) || s.avail[sv.Row][pos] != id) {
			return fmt.Errorf("server %d: pos %d does not hold it in row %d's list %v", id, pos, sv.Row, s.avail[sv.Row])
		}
		list := s.runList(id)
		if n := s.RunningJobs(sv.ID); n != len(list) || sv.Busy() != n+reserved[id] {
			return fmt.Errorf("server %d: %d running, %d listed, %d reserved, %d busy", id, n, len(list), reserved[id], sv.Busy())
		}
		for _, slot := range list {
			if got := s.run.At(slot).server; got != id || listed[slot] {
				return fmt.Errorf("server %d: slot %d names server %d or is listed twice", id, slot, got)
			}
			listed[slot] = true
		}
		running += len(list)
		busyRow[sv.Row] += sv.Busy()
	}
	total := 0
	for r, list := range s.avail {
		total += len(list)
		if busyRow[r] != s.busyRow[r] {
			return fmt.Errorf("row %d: %d busy containers, scheduler counts %d", r, busyRow[r], s.busyRow[r])
		}
	}
	if s.availTree.total != total {
		return fmt.Errorf("row tree total %d, lists hold %d", s.availTree.total, total)
	}
	free := 0
	for slot := s.runFree; slot >= 0; slot = s.run.At(slot).server {
		free++
	}
	if running+free != s.run.Len() {
		return fmt.Errorf("%d running and %d free slots, slab holds %d", running, free, s.run.Len())
	}
	if st := s.Stats(); st.Placed != st.Completed+int64(running)+st.Killed {
		return fmt.Errorf("placed %d ≠ completed %d + running %d + killed %d", st.Placed, st.Completed, running, st.Killed)
	}
	return nil
}

func TestQueueWaitAccounting(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 1) // 16 containers
	s := New(eng, c, 1, nil)
	if s.QueueWaits() != 0 || s.QueueWaitQuantile(0.5) != 0 {
		t.Fatal("wait stats not empty initially")
	}
	// Fill the server with 10-minute jobs, then submit two more that must
	// wait for completions.
	for i := int64(0); i < 16; i++ {
		s.Submit(batchJob(i, 10*sim.Minute, 1))
	}
	s.Submit(batchJob(100, sim.Minute, 1))
	s.Submit(batchJob(101, sim.Minute, 1))
	if err := eng.RunUntil(sim.Time(sim.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := s.QueueWaits(); got != 2 {
		t.Fatalf("recorded %d waits, want 2", got)
	}
	// Both queued jobs waited until the first completions at ≈10 minutes.
	w := s.QueueWaitQuantile(0.5)
	if w < 9*sim.Minute || w > 11*sim.Minute {
		t.Errorf("median wait %v, want ≈10m", w)
	}
	// Jobs placed immediately contribute no samples.
	s.Submit(batchJob(102, sim.Minute, 1))
	if s.QueueWaits() != 2 {
		t.Error("immediate placement recorded a wait")
	}
}

// Job IDs belong to the submitters, and two of them (two generators, a
// replayed trace) may both count from zero: a queued job's wait must not be
// looked up by ID. The old enqueuedAt map timed the first of two colliding
// jobs from the second's submission and dropped the second's wait.
func TestQueueWaitSurvivesCollidingIDs(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 2)
	s := New(eng, c, 1, nil)
	for _, sv := range c.Servers {
		if err := s.Freeze(sv.ID); err != nil {
			t.Fatal(err)
		}
	}
	s.Submit(batchJob(0, sim.Minute, 1))
	if err := eng.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	s.Submit(batchJob(0, sim.Minute, 1)) // another submitter's job 0
	if err := eng.RunUntil(sim.Time(30 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if s.QueueLen() != 2 {
		t.Fatalf("%d jobs queued behind the frozen row, want 2", s.QueueLen())
	}
	if err := s.Unfreeze(0); err != nil {
		t.Fatal(err)
	}
	if got := s.QueueWaits(); got != 2 {
		t.Fatalf("recorded %d waits, want 2", got)
	}
	near := func(got, want sim.Duration) bool { return got > want-want/50 && got < want+want/50 }
	if lo, hi := s.QueueWaitQuantile(0), s.QueueWaitQuantile(1); !near(lo, 20*sim.Minute) || !near(hi, 30*sim.Minute) {
		t.Errorf("waits %v and %v, want ≈20m and ≈30m", lo, hi)
	}
}

// The job path allocates nothing at steady state: placement writes into the
// recycled slab and the row's run lists, completion swap-removes in place,
// and the candidate lists shrink and regrow within their arrays.
func TestSubmitAndCompleteDoNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 2, 1, 4)
	s := New(eng, c, 1, nil)
	// One free container a server, so each placement takes its server out
	// of the candidate list and each completion puts it back.
	for _, sv := range c.Servers {
		if err := s.Reserve(sv.ID, c.Spec.Containers-1, 1); err != nil {
			t.Fatal(err)
		}
	}
	job := batchJob(1, sim.Minute, 1)
	cycle := func() {
		s.Submit(job)
		if err := eng.RunUntil(eng.Now().Add(sim.Minute + sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the slab, both rows' run lists and the engine's heap.
	for range c.Servers {
		s.Submit(job)
	}
	if err := eng.RunUntil(eng.Now().Add(sim.Minute + sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// The count is process-wide, and the process's first collection
	// allocates the GC's worker goroutines: collect once beforehand.
	runtime.GC()
	before := s.Stats().Completed
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a submit and its completion allocated %v objects, want 0", allocs)
	}
	if got := s.Stats().Completed - before; got != 101 {
		t.Errorf("%d jobs completed in the counted cycles, want 101", got)
	}
}
