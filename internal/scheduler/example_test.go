package scheduler_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The freeze/unfreeze coupling in miniature: freezing a server only affects
// new placements, never running jobs.
func ExampleScheduler_Freeze() {
	eng := sim.NewEngine()
	spec := cluster.DefaultSpec()
	spec.RacksPerRow, spec.ServersPerRack = 1, 2
	spec.NoiseSigmaW = 0
	c, err := cluster.New(spec, 1)
	if err != nil {
		panic(err)
	}
	s := scheduler.New(eng, c, 1, nil)

	// A job lands somewhere; then Ampere freezes server 0.
	s.Submit(&workload.Job{ID: 1, Work: 5 * sim.Minute, CPU: 1, Product: -1})
	if err := s.Freeze(0); err != nil {
		panic(err)
	}
	// New jobs avoid the frozen server.
	for i := int64(2); i < 6; i++ {
		s.Submit(&workload.Job{ID: i, Work: 5 * sim.Minute, CPU: 1, Product: -1})
	}
	fmt.Println("server 1 busy:", c.Server(1).Busy() > 0)
	fmt.Println("available in row:", s.AvailableInRow(0))
	if err := eng.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		panic(err)
	}
	fmt.Println("all completed:", s.Stats().Completed == 5)
	// Output:
	// server 1 busy: true
	// available in row: 1
	// all completed: true
}
