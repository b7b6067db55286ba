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
// ablations scale gridstorm tournament.
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
//
// Every experiment checks its claims (internal/experiment/claims.go) on the
// result it reports: the paper's shapes, such as Ampere's violations at least
// ten times below the uncontrolled group's. Claims that only the paper's
// sizes can show are skipped under -quick. When a claim fails, every report
// is still printed; each failed claim is then named on stderr with its
// source, measured value and bound, and the exit code is 1.
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
// exit code (2 for a usage error, 1 for a failed experiment or claim).
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
	return execute(exps, *quick, *seed, *out, stdout, stderr)
}

// execute renders the experiments, writes their reports to stdout and then
// each failed claim to stderr, and returns the exit code: 1 if an experiment
// failed or a claim did not hold, else 0.
func execute(exps []experiment.Experiment, quick bool, seed uint64, outDir string, stdout, stderr io.Writer) int {
	report, claims, err := render(exps, quick, seed, outDir, stderr)
	stdout.Write(report)
	code := 0
	if err != nil {
		fmt.Fprintln(stderr, err)
		code = 1
	}
	for i, cs := range claims {
		for _, c := range cs {
			if !c.Held {
				fmt.Fprintf(stderr, "%s: claim failed: %s\n", exps[i].ID, c)
				code = 1
			}
		}
	}
	return code
}

// render runs the experiments and returns their reports in order, each
// non-empty one followed by a blank line, and the claims each checked; on
// failure, the finished reports and claims and the lowest-indexed error. A
// line per finished run goes to progress.
func render(exps []experiment.Experiment, quick bool, seed uint64, outDir string, progress io.Writer) ([]byte, [][]experiment.Claim, error) {
	type rendered struct {
		report []byte
		claims []experiment.Claim
	}
	units := make([]runner.Unit[rendered], len(exps))
	for i, e := range exps {
		units[i] = runner.Unit[rendered]{Name: e.ID, Run: func() (rendered, error) {
			var buf bytes.Buffer
			claims, err := e.Run(&buf, quick, seed, outDir)
			if err != nil {
				return rendered{}, err
			}
			return rendered{buf.Bytes(), claims}, nil
		}}
	}
	results, err := runner.Run(units, runner.Options{
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
	claims := make([][]experiment.Claim, len(results))
	for i, r := range results {
		if len(r.report) > 0 {
			out.Write(r.report)
			out.WriteByte('\n')
		}
		claims[i] = r.claims
	}
	return out.Bytes(), claims, err
}
