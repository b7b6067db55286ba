// Command ampere-exp regenerates any table or figure from the paper's
// evaluation section against the simulated data center.
//
// Usage:
//
//	ampere-exp [-exp id|all] [-quick] [-seed N] [-out dir]
//
// The ids, in -exp all order, are the entries of the experiment catalogue
// (internal/experiment/catalog.go): fig1 fig2 fig4 fig5 fig7 fig8 fig9
// table2 (alias fig10) fig11 fig11scale fig12 table3 spread outage chaos
// ablations scale gridstorm whatif tournament.
//
// -quick shrinks cluster sizes and time spans for a fast pass (the same
// configurations the test suite and benchmarks use); the default sizes
// follow the paper (400-server rows, 24-hour spans) and take a few minutes
// in total. -seed replaces each experiment's own seed. -out additionally
// writes plot-ready files (CSV series, tournament.json) into the given
// directory.
//
// Independent runs — the selected experiments and the variants inside them —
// fan out across GOMAXPROCS workers (GOMAXPROCS=1 runs them serially). Each
// builds an isolated rig from its own seed and its report is printed in
// catalogue order, so stdout is byte-identical at any GOMAXPROCS;
// per-experiment timing goes to stderr as runs complete.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/runner"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it runs the experiments args select, writes their
// reports to stdout and progress and diagnostics to stderr, and returns the
// exit code (2 for a usage error, 1 for a failed experiment).
func run(args []string, stdout, stderr io.Writer) int {
	var ids []string
	for _, e := range experiment.Catalog() {
		ids = append(ids, e.ID)
	}
	expIDs := strings.Join(ids, ", ") + ", all"
	fs := flag.NewFlagSet("ampere-exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id ("+expIDs+")")
	quick := fs.Bool("quick", false, "shrunken fast configuration")
	seed := fs.Uint64("seed", 0, "override the experiment seed (0 = per-experiment default)")
	out := fs.String("out", "", "directory to also write plot-ready CSV series into")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	exps := experiment.Catalog()
	if *exp != "all" {
		e, ok := experiment.Lookup(*exp)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (want one of %s)\n", *exp, expIDs)
			fs.Usage()
			return 2
		}
		exps = []experiment.Experiment{e}
	}
	report, err := render(exps, *quick, *seed, *out, stderr)
	stdout.Write(report)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// render runs the experiments and returns their reports in order, each
// non-empty one followed by a blank line; on failure, the finished reports
// and the lowest-indexed error. A line per finished run goes to progress.
func render(exps []experiment.Experiment, quick bool, seed uint64, outDir string, progress io.Writer) ([]byte, error) {
	units := make([]runner.Unit[[]byte], len(exps))
	for i, e := range exps {
		units[i] = runner.Unit[[]byte]{Name: e.ID, Run: func() ([]byte, error) {
			var buf bytes.Buffer
			if err := e.Run(&buf, quick, seed, outDir); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}}
	}
	bufs, err := runner.Run(units, runner.Options{
		OnDone: func(r runner.Report) {
			switch {
			case r.Skipped:
				fmt.Fprintf(progress, "  [%s skipped]\n", r.Name)
			case r.Err != nil:
				fmt.Fprintf(progress, "  [%s failed after %.1fs: %v]\n", r.Name, r.Elapsed.Seconds(), r.Err)
			default:
				fmt.Fprintf(progress, "  [%s completed in %.1fs]\n", r.Name, r.Elapsed.Seconds())
			}
		},
	})
	var out bytes.Buffer
	for _, b := range bufs {
		if len(b) > 0 {
			out.Write(b)
			out.WriteByte('\n')
		}
	}
	return out.Bytes(), err
}
