// Command ampere-sim runs one simulated data-center scenario and prints a
// summary: per-row power statistics, violations, breaker state, scheduler
// activity, and controller behaviour. Scenarios come from flags or from a
// JSON file (see internal/scenario.Spec for the schema):
//
//	ampere-sim -rows 2 -row-servers 400 -hours 24 -target 0.76 -ro 0.25 -ampere
//	ampere-sim -config scenario.json
//	ampere-sim -ampere -replicate 8
//
// -replicate K repeats the scenario K times with seeds seed..seed+K−1,
// fanned across GOMAXPROCS workers (GOMAXPROCS=1 runs them serially). Each
// replicate builds its own isolated simulation and its report is buffered,
// so output appears in seed order and is byte-identical at any GOMAXPROCS.
//
// cmd/ampere-exp runs the paper's specific experiments; this tool is for
// free-form exploration.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() {
	var (
		config     = flag.String("config", "", "JSON scenario file (overrides the other flags)")
		rows       = flag.Int("rows", 1, "number of rows")
		rowServers = flag.Int("row-servers", 400, "servers per row (multiple of 20)")
		hours      = flag.Int("hours", 24, "simulated hours (after a 2h warmup)")
		target     = flag.Float64("target", 0.74, "steady row power target as a fraction of rated")
		ro         = flag.Float64("ro", 0.25, "over-provisioning ratio (row budget = rated/(1+ro))")
		ampere     = flag.Bool("ampere", false, "enable the Ampere controller")
		capping    = flag.Bool("capping", false, "enable DVFS power capping")
		breaker    = flag.Bool("breaker", false, "enable PDU circuit breakers (trips black out the row)")
		kr         = flag.Float64("kr", 0, "control model gradient (0 = calibrated default)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		policy     = flag.String("policy", "random-fit", "placement policy: random-fit|least-loaded|best-fit|round-robin")
		chooser    = flag.String("row-chooser", "proportional", "row selection: proportional|balance-rows|concentrate-rows")
		amplitude  = flag.Float64("amplitude", 0.35, "diurnal amplitude of the workload")
		replicate  = flag.Int("replicate", 1, "run K replicates with seeds seed..seed+K-1")
	)
	flag.Parse()

	var spec *scenario.Spec
	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			fatal(err)
		}
		spec, err = scenario.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		spec = &scenario.Spec{
			Seed:       *seed,
			Rows:       *rows,
			RowServers: *rowServers,
			Hours:      *hours,
			TargetFrac: *target,
			Amplitude:  *amplitude,
			RO:         *ro,
			Ampere:     *ampere,
			Capping:    *capping,
			Breaker:    *breaker,
			Kr:         *kr,
			Policy:     *policy,
			RowChooser: *chooser,
		}
	}

	k := *replicate
	if k < 1 {
		k = 1
	}
	units := make([]runner.Unit[[]byte], k)
	for i := 0; i < k; i++ {
		units[i] = runner.Unit[[]byte]{Name: fmt.Sprintf("replicate %d", i), Run: func() ([]byte, error) {
			// Shallow copy: Build never mutates the spec and replicates only
			// reseed it, so the copies stay independent.
			sp := *spec
			sp.Seed = spec.Seed + uint64(i)
			built, err := sp.Build()
			if err != nil {
				return nil, err
			}
			if err := built.Run(); err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if k > 1 {
				fmt.Fprintf(&buf, "=== replicate %d (seed %d) ===\n", i, sp.Seed)
			}
			built.Report(&buf)
			return buf.Bytes(), nil
		}}
	}
	outs, err := runner.Run(units, runner.Options{})
	for _, b := range outs {
		os.Stdout.Write(b)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ampere-sim:", err)
	os.Exit(1)
}
