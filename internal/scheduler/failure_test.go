package scheduler

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestFailServerKillsJobs(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 2)
	s := New(eng, c, 1, nil)
	completed := 0
	s.OnComplete(func(int64, *cluster.Server) { completed++ })

	// Pin four jobs to server 0 by freezing server 1 first.
	if err := s.Freeze(1); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		s.Submit(batchJob(i, 10*sim.Minute, 1))
	}
	if c.Server(0).Busy() != 4 {
		t.Fatalf("busy %d", c.Server(0).Busy())
	}
	if err := s.FailServer(0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailServer(0); err == nil {
		t.Error("double fail accepted")
	}
	if !c.Server(0).Failed() {
		t.Fatal("server not failed")
	}
	if c.Server(0).Busy() != 0 {
		t.Errorf("containers not released: busy %d", c.Server(0).Busy())
	}
	if got := s.Stats().Killed; got != 4 {
		t.Errorf("killed %d, want 4", got)
	}
	if c.Server(0).DemandW() != 0 {
		t.Errorf("failed server draws %v W", c.Server(0).DemandW())
	}
	// Killed jobs never complete.
	if err := eng.RunUntil(sim.Time(30 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if completed != 0 {
		t.Errorf("%d killed jobs completed", completed)
	}
	if s.Stats().Completed != 0 {
		t.Errorf("completed counter %d", s.Stats().Completed)
	}

	// Failed servers receive no placements; submissions queue (server 1
	// still frozen).
	s.Submit(batchJob(99, sim.Minute, 1))
	if s.QueueLen() != 1 {
		t.Fatalf("queue %d", s.QueueLen())
	}

	// Repair restores scheduling and drains the queue.
	if err := s.RepairServer(0); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairServer(0); err == nil {
		t.Error("double repair accepted")
	}
	if s.QueueLen() != 0 {
		t.Error("repair did not drain queue")
	}
	if c.Server(0).Busy() != 1 {
		t.Errorf("busy %d after repair placement", c.Server(0).Busy())
	}
	if err := s.FailServer(99); err == nil {
		t.Error("unknown id accepted")
	}
	if err := s.RepairServer(-1); err == nil {
		t.Error("negative id accepted")
	}
}
