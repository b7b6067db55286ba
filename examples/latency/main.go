// Latency compares what the two power-protection mechanisms do to a
// latency-critical service sharing an over-provisioned row with batch jobs:
// DVFS power capping slows every running request, while Ampere only steers
// new batch placements away — the §4.3 experiment in miniature.
//
//	go run ./examples/latency
package main

import (
	"fmt"
	"log"

	"repro/internal/experiment"
	"repro/internal/sim"
)

func main() {
	cfg := experiment.Fig11Config{
		Seed:              3,
		RowServers:        80,
		ServiceServers:    16,
		ServiceContainers: 8,
		RO:                0.25,
		BatchTargetFrac:   0.75,
		RequestsPerSecond: 80,
		Day:               experiment.Day{Warmup: sim.Hour, Pretrain: 12 * sim.Hour, Measure: 90 * sim.Minute},
	}
	res, err := experiment.RunFig11(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("99.9th percentile latency under power pressure (µs):")
	fmt.Printf("%-12s %12s %12s %8s\n", "operation", "capping", "ampere", "ratio")
	for _, r := range res.Rows {
		fmt.Printf("%-12s %12.0f %12.0f %7.2f×\n",
			r.Op, r.P999CappingUS, r.P999AmpereUS, r.Inflation)
	}
	fmt.Printf("\nserver-intervals spent frequency-capped: %.1f%% (capping) vs %.1f%% (Ampere)\n",
		res.CappedServerFracCapping*100, res.CappedServerFracAmpere*100)
	fmt.Println("capping hurts running requests; Ampere only refuses new batch placements.")
}
