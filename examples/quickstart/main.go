// Quickstart: assemble the full Ampere stack — cluster, two-level
// scheduler, workload, power monitor, controller — on a single
// over-provisioned row, run six simulated hours, and print what the
// controller did.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// One row of 200 servers: 10 racks × 20 servers, 250 W rated each.
	spec := stack.RowSpec(1, 200)

	// Batch workload sized so the row runs hot: jobs average 8.5 minutes and
	// arrive as a modulated Poisson process.
	perServer := workload.RateForPowerFraction(
		0.76, spec.IdlePowerW, spec.RatedPowerW, spec.Containers, 8.5, 1.0)
	product := workload.DefaultProduct("batch", perServer*float64(spec.TotalServers()))

	// The stack wires cluster, scheduler (default random-fit policy), TSDB,
	// per-minute power monitor and workload generator on one engine.
	rig, err := stack.New(stack.Config{Seed: 42, Cluster: spec, Products: []workload.Product{product}})
	if err != nil {
		return err
	}

	// Over-provision by 25%: the enforced budget is rated/(1+0.25).
	budget := spec.RowRatedPowerW() / 1.25
	ctl, err := core.New(rig.Eng, rig.Mon, rig.Sched, core.DefaultConfig(), []core.Domain{{
		Name:    "row/0",
		Servers: rig.Cluster.RowIDs(0),
		BudgetW: budget,
		Kr:      stack.DefaultKr,
	}})
	if err != nil {
		return err
	}

	// Start order matters only for determinism: monitor first so each
	// minute's samples precede their consumers.
	rig.StartBase()
	ctl.Start()

	if err := rig.Run(sim.Time(6 * sim.Hour)); err != nil {
		return err
	}

	st := ctl.Stats(0)
	fmt.Fprintf(w, "simulated 6h on %d servers (budget %.0f W, rated %.0f W)\n",
		spec.TotalServers(), budget, spec.RowRatedPowerW())
	fmt.Fprintf(w, "row power:  mean %.3f, max %.3f of budget\n", st.PMean(), st.PMax)
	fmt.Fprintf(w, "violations: %d of %d minutes\n", st.Violations, st.Ticks)
	fmt.Fprintf(w, "freezing:   mean ratio %.3f, max %.3f, %d freeze / %d unfreeze ops\n",
		st.UMean(), st.UMax, st.FreezeOps, st.UnfreezeOps)
	ss := rig.Sched.Stats()
	fmt.Fprintf(w, "scheduler:  %d jobs placed, %d completed, %d had to wait\n",
		ss.Placed, ss.Completed, ss.Queued)
	if p, ok := rig.DB.Latest("row/0"); ok {
		fmt.Fprintf(w, "tsdb:       latest row sample %.0f W at %v\n", p.V, p.T)
	}
	return nil
}
