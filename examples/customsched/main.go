// Customsched demonstrates the paper's key interface claim: Ampere couples
// to the job scheduler through nothing but Freeze and Unfreeze, so it works
// unchanged under an arbitrary, application-specific placement policy. Here
// we bring a deliberately quirky policy — rack-affinity bin-packing that the
// controller knows nothing about — and show the controller still keeps the
// row under its budget.
//
//	go run ./examples/customsched
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/monitor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rackPacker is an application-specific upper-level policy: it packs each
// job onto the fullest server of the least-loaded rack, a shape no generic
// power controller could anticipate. The scheduler hands it server IDs; it
// reads their racks and free containers from the cluster it holds.
type rackPacker struct{ c *cluster.Cluster }

func (rackPacker) Name() string { return "rack-packer" }

func (p rackPacker) Pick(_ *rand.Rand, _ *workload.Job, candidates []int32) int32 {
	// Least-loaded rack by total free containers.
	freeByRack := map[int]int{}
	for _, id := range candidates {
		sv := p.c.Servers[id]
		freeByRack[sv.Rack] += sv.FreeContainers()
	}
	bestRack, bestFree := -1, -1
	for rack, free := range freeByRack {
		if free > bestFree || (free == bestFree && rack < bestRack) {
			bestRack, bestFree = rack, free
		}
	}
	// Fullest fitting server within it.
	var chosen *cluster.Server
	for _, id := range candidates {
		sv := p.c.Servers[id]
		if sv.Rack != bestRack {
			continue
		}
		if chosen == nil || sv.FreeContainers() < chosen.FreeContainers() ||
			(sv.FreeContainers() == chosen.FreeContainers() && sv.ID < chosen.ID) {
			chosen = sv
		}
	}
	return int32(chosen.ID)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates eight hours of the row under rackPacker and Ampere and
// writes the summary to w.
func run(w io.Writer) error {
	spec := cluster.DefaultSpec()
	spec.RacksPerRow = 8
	c, err := cluster.New(spec, 9)
	if err != nil {
		return err
	}
	eng := sim.NewEngine()
	sched := scheduler.New(eng, c, 9, rackPacker{c})
	mon, err := monitor.New(eng, c, nil, monitor.DefaultConfig())
	if err != nil {
		return err
	}
	perServer := workload.RateForPowerFraction(
		0.76, spec.IdlePowerW, spec.RatedPowerW, spec.Containers, 8.5, 1.0)
	gen, err := workload.NewGenerator(eng, 9,
		[]workload.Product{workload.DefaultProduct("batch", perServer*float64(spec.TotalServers()))},
		workload.DefaultDurations(), sched.Submit)
	if err != nil {
		return err
	}

	ids := make([]cluster.ServerID, len(c.Servers))
	for i := range ids {
		ids[i] = cluster.ServerID(i)
	}
	budget := spec.RowRatedPowerW() / 1.25
	// The controller receives only a PowerReader and the two-call
	// FreezeAPI; it has no idea rackPacker exists.
	ctl, err := core.New(eng, mon, sched, core.DefaultConfig(), []core.Domain{{
		Name: "row/0", Servers: ids, BudgetW: budget, Kr: experiment.DefaultKr,
	}})
	if err != nil {
		return err
	}

	mon.Start()
	gen.Start()
	ctl.Start()
	if err := eng.RunUntil(sim.Time(8 * sim.Hour)); err != nil {
		return err
	}

	st := ctl.Stats(0)
	fmt.Fprintf(w, "policy %q under Ampere control for 8h:\n", rackPacker{}.Name())
	fmt.Fprintf(w, "  power mean/max of budget: %.3f / %.3f\n", st.PMean(), st.PMax)
	fmt.Fprintf(w, "  violations: %d of %d minutes\n", st.Violations, st.Ticks)
	fmt.Fprintf(w, "  freeze ops: %d, unfreeze ops: %d, mean freeze ratio %.3f\n",
		st.FreezeOps, st.UnfreezeOps, st.UMean())
	fmt.Fprintf(w, "  scheduler placed %d jobs with the custom policy\n", sched.Stats().Placed)
	fmt.Fprintln(w, "the controller used only Freeze/Unfreeze — no scheduler internals.")
	return nil
}
