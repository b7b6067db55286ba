// Overprovision sweeps the over-provisioning ratio rO and reports the gain
// in throughput-per-provisioned-watt (GTPW) for each, reproducing the
// paper's §4.4 conclusion that a moderate ratio (≈ 0.17) is the sweet spot:
// small ratios leave gain on the table (GTPW ≤ rO), large ratios freeze so
// many servers under load that the extra capacity cannot be used.
//
//	go run ./examples/overprovision
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim"
)

func main() {
	// A moderately heavy day: the same workload for every ratio, so the
	// only variable is how hard the budget squeezes.
	const targetFrac = 0.745 // fraction of rated power

	fmt.Println("rO sweep on a 160-server row, identical workload (shrunken scale):")
	fmt.Printf("%6s %8s %8s %8s %8s %8s\n", "rO", "Pmean", "umean", "rT", "GTPW", "viol")

	var history []float64 // control-group power fractions, fed to the planner

	best, bestGTPW := 0.0, -1.0
	for _, ro := range []float64{0.09, 0.13, 0.17, 0.21, 0.25, 0.30} {
		run, err := experiment.RunAmpere(experiment.AmpereRunConfig{
			Controlled: experiment.ControlledConfig{
				Seed:             7,
				RowServers:       160,
				RestRows:         1,
				TargetPowerFrac:  targetFrac,
				RO:               ro,
				ScaleCtrlBudget:  false, // §4.4 setup: only the exp group is squeezed
				DiurnalAmplitude: 0.45,
			},
			Day: experiment.Day{Warmup: sim.Hour, Pretrain: 24 * sim.Hour, Measure: 24 * sim.Hour},
		})
		if err != nil {
			log.Fatal(err)
		}
		st := run.Analyze(fmt.Sprintf("ro=%.2f", ro))
		rT := run.ThroughputRatio()
		gtpw := core.GTPW(rT, ro)
		fmt.Printf("%6.2f %8.3f %8.3f %8.3f %7.1f%% %8d\n",
			ro, st.PMeanCtrl, st.UMean, rT, gtpw*100, st.ViolationsExp)
		if gtpw > bestGTPW {
			best, bestGTPW = ro, gtpw
		}
		if history == nil {
			// Record the uncontrolled group's history once (it is the same
			// demand process for every ratio): watts / group rated power.
			t := run.Ctrl.Tracker
			for _, w := range t.PowerSeries(experiment.GCtrl, run.MeasureFrom) {
				history = append(history, w/run.Ctrl.GroupRatedW)
			}
		}
	}
	fmt.Printf("\nbest ratio by empirical sweep: rO = %.2f (GTPW %.1f%%)\n", best, bestGTPW*100)

	// Cross-check with the §4.4 planning model: feed the same power history
	// to the analytic planner and compare its recommendation.
	plan, err := core.PlanRO(history, []float64{0.09, 0.13, 0.17, 0.21, 0.25, 0.30}, 0.02)
	if err != nil {
		log.Fatal(err)
	}
	if plan.Best != nil {
		fmt.Printf("planner recommendation from the same history: rO = %.2f (expected GTPW %.1f%%, overload %.1f%%)\n",
			plan.Best.RO, plan.Best.ExpectedGTPW*100, plan.Best.OverloadFrac*100)
	}
	fmt.Println("the paper chooses 0.17 as the safe/effective balance for its fleet")
}
