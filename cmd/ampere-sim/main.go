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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it runs the scenario args describe, writes the
// report to stdout and diagnostics to stderr, and returns the exit code (2 for
// a usage error, 1 for a failed scenario).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ampere-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		config     = fs.String("config", "", "JSON scenario file (overrides the other flags)")
		rows       = fs.Int("rows", 1, "number of rows")
		rowServers = fs.Int("row-servers", 400, "servers per row (multiple of 20)")
		hours      = fs.Int("hours", 24, "simulated hours (after a 2h warmup)")
		target     = fs.Float64("target", 0.74, "steady row power target as a fraction of rated")
		ro         = fs.Float64("ro", 0.25, "over-provisioning ratio (row budget = rated/(1+ro))")
		ampere     = fs.Bool("ampere", false, "enable the Ampere controller")
		capping    = fs.Bool("capping", false, "enable DVFS power capping")
		breaker    = fs.Bool("breaker", false, "enable PDU circuit breakers (trips black out the row)")
		kr         = fs.Float64("kr", 0, "control model gradient (0 = calibrated default)")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		chooser    = fs.String("row-chooser", "proportional", "row selection: proportional|balance-rows|concentrate-rows")
		amplitude  = fs.Float64("amplitude", 0.35, "diurnal amplitude of the workload")
		replicate  = fs.Int("replicate", 1, "run K replicates with seeds seed..seed+K-1")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	k := *replicate
	if k < 1 {
		fmt.Fprintf(stderr, "ampere-sim: -replicate %d must be at least 1\n", k)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ampere-sim:", err)
		return 1
	}

	var spec *scenario.Spec
	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			return fail(err)
		}
		spec, err = scenario.Load(f)
		f.Close()
		if err != nil {
			return fail(err)
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
			RowShaping: *chooser,
		}
	}

	if err := spec.Validate(); err != nil {
		return fail(err)
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
		stdout.Write(b)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}
