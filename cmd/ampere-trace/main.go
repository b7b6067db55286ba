// Command ampere-trace records, replays, and explains row power traces.
//
//	ampere-trace record -out row.csv -hours 12 -target 0.78
//	ampere-trace replay -in row.csv [-ampere] [-ro 0.25]
//	ampere-trace why [-event N] [-alt policy=...] [-regime cliff|ramp] [-json]
//
// record simulates a diurnal day on one row and writes the per-minute power
// trace as CSV; replay converts a trace (from record, or any external export
// with the same layout) back into an arrival-rate schedule, re-simulates the
// row along that trajectory, and reports power/violation statistics —
// optionally under Ampere control with an emulated over-provisioning ratio.
//
// why answers the operator's counterfactual question on the gridstorm
// scenario: snapshot the run at journal event N (default: the dip-onset
// budget change), fork it with an alternative policy (default: a ramped
// budget), replay against the same seeded workload and chaos streams, and
// print the scored diff — trips avoided, violation ticks avoided, capacity
// minutes gained, and per-domain divergence points. See OPERATIONS.md §13.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it runs the subcommand args name, writes its
// results to stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cmds := map[string]func(args []string, stdout, stderr io.Writer) error{
		"record": record, "replay": replay, "why": why,
	}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: ampere-trace record|replay|why [flags]")
		return 2
	}
	switch err := cmds[args[0]](args[1:], stdout, stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintln(stderr, "ampere-trace:", err)
		return 1
	}
}

// errUsage is a subcommand's flag-parse failure; the flag set has already
// printed the problem and its usage to stderr.
var errUsage = errors.New("usage")

// parse parses a subcommand's args, printing any problem and the usage to
// stderr: -h yields flag.ErrHelp, any other failure errUsage.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

const (
	rowServers = 160
	warmup     = sim.Hour
)

func record(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	out := fs.String("out", "trace.csv", "output CSV path")
	hours := fs.Int("hours", 12, "hours to record")
	target := fs.Float64("target", 0.78, "mean power target (fraction of rated)")
	amplitude := fs.Float64("amplitude", 0.35, "diurnal amplitude")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	switch {
	case !(*target > 0 && *target <= 1):
		return fmt.Errorf("target %v outside (0,1]", *target)
	case !(*amplitude >= 0 && *amplitude <= 1):
		// Above 1 the trough's rate clamps to 0 and the mean load exceeds
		// the target; a NaN amplitude makes every arrival rate NaN.
		return fmt.Errorf("amplitude %v outside [0,1]", *amplitude)
	}

	spec := stack.RowSpec(1, rowServers)
	prod := workload.DefaultProduct("recorded", stack.JobsPerMinute(spec, *target, spec.TotalServers()))
	prod.DiurnalAmplitude = *amplitude

	rig, err := stack.New(stack.Config{
		Seed: *seed, Cluster: spec, Products: []workload.Product{prod},
	})
	if err != nil {
		return err
	}
	rig.StartBase()
	end := sim.Time(warmup) + sim.Time(*hours)*sim.Time(sim.Hour)
	if err := rig.Run(end); err != nil {
		return err
	}
	tr, err := trace.FromTSDB(rig.DB, []string{monitor.SeriesRow(0)}, sim.Time(warmup), end, sim.Minute)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d minutes of %s to %s\n", tr.Len(), monitor.SeriesRow(0), *out)
	return nil
}

func replay(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	in := fs.String("in", "trace.csv", "input CSV path")
	ampere := fs.Bool("ampere", false, "control the row with Ampere")
	ro := fs.Float64("ro", 0.25, "over-provisioning ratio for the budget")
	kr := fs.Float64("kr", stack.DefaultKr, "control model gradient")
	seed := fs.Uint64("seed", 2, "simulation seed")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if !(*ro >= 0) || math.IsInf(*ro, 1) {
		return fmt.Errorf("ro %v must be a finite number ≥ 0", *ro)
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	tr, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	spec := stack.RowSpec(1, rowServers)
	sched, err := trace.RateSchedule(tr.Series(0), spec.TotalServers(), spec, stack.MeanJobMinutes(), 1.0)
	if err != nil {
		return err
	}
	fl := &fleet.Fleet{
		Stack: stack.Config{Seed: *seed, Cluster: spec, Products: []workload.Product{
			{Name: "replay", Schedule: sched, ScheduleStart: sim.Time(warmup)}}},
		RowBudgetW: spec.RowRatedPowerW() / (1 + *ro),
		RowName:    "row/%d",
	}
	if *ampere {
		fl.Control = &fleet.Control{Rows: 1, Margin: 1, Kr: *kr, Config: core.DefaultConfig()}
	}
	if err := fl.Build(); err != nil {
		return err
	}
	rig, controller, budget := fl.Rig, fl.Controller, fl.RowBudgetW
	rig.StartBase()
	fl.Start()
	end := sim.Time(warmup) + sim.Time(tr.Len())*sim.Time(sim.Minute)
	if err := rig.Run(end); err != nil {
		return err
	}

	vals := rig.DB.Values(monitor.SeriesRow(0), sim.Time(warmup), end-1)
	var s stats.Summary
	violations := 0
	for _, v := range vals {
		s.Add(v / budget)
		if v > budget {
			violations++
		}
	}
	fmt.Fprintf(stdout, "replayed %d minutes from %s (budget %.0f W, rO %.2f, ampere=%v)\n",
		len(vals), *in, budget, *ro, *ampere)
	fmt.Fprintf(stdout, "  power mean/max of budget: %.3f / %.3f\n", s.Mean(), s.Max())
	fmt.Fprintf(stdout, "  violations: %d of %d minutes\n", violations, len(vals))
	if controller != nil {
		st := controller.Stats(0)
		fmt.Fprintf(stdout, "  ampere: u mean/max %.3f/%.3f, %d freeze ops\n", st.UMean(), st.UMax, st.FreezeOps)
	}
	return nil
}
