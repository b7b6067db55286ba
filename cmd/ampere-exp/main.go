// Command ampere-exp regenerates any table or figure from the paper's
// evaluation section against the simulated data center.
//
// Usage:
//
//	ampere-exp -exp fig1|fig2|fig4|fig5|fig7|fig8|fig9|fig10|fig11|fig11scale|
//	                fig12|table2|table3|spread|outage|chaos|ablations|scale|
//	                gridstorm|whatif|tournament|all
//	           [-quick] [-seed N] [-out dir]
//
// -quick shrinks cluster sizes and time spans for a fast pass (the same
// configurations the test suite and benchmarks use); the default sizes
// follow the paper (400-server rows, 24-hour spans) and take a few minutes
// in total. -out additionally writes plot-ready CSV series for the figure
// experiments into the given directory.
//
// Independent runs — the selected experiments and the variants inside them —
// fan out across GOMAXPROCS workers (GOMAXPROCS=1 runs them serially). Each
// builds an isolated rig from its own seed and its report is printed in the
// fixed experiment order, so stdout is byte-identical at any GOMAXPROCS;
// per-experiment timing goes to stderr as runs complete.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/sim"
)

// runCtx carries the shared CLI knobs into each experiment runner.
type runCtx struct {
	quick  bool
	seed   uint64
	outDir string
}

// runners maps every -exp id to its experiment; fig10 is an alias of table2
// (one run produces both).
var runners = map[string]func(io.Writer, runCtx) error{
	"fig1":       runFig1,
	"fig2":       runFig2,
	"fig4":       runFig4,
	"fig5":       runFig5,
	"fig7":       runFig7,
	"fig8":       runFig8,
	"fig9":       runFig9,
	"fig10":      runFig10Table2,
	"table2":     runFig10Table2,
	"fig11":      runFig11,
	"fig11scale": runFig11Scale,
	"fig12":      runFig12,
	"table3":     runTable3,
	"spread":     runSpread,
	"outage":     runOutage,
	"chaos":      runChaos,
	"ablations":  runAblations,
	"scale":      runScale,
	"gridstorm":  runGridstorm,
	"whatif":     runWhatif,
	"tournament": runTournament,
}

// order is what -exp all runs, and the order reports print in.
var order = []string{"fig1", "fig2", "fig4", "fig5", "fig7", "fig8", "fig9",
	"table2", "fig11", "fig11scale", "fig12", "table3", "spread", "outage", "chaos",
	"ablations", "scale", "gridstorm", "whatif", "tournament"}

func main() {
	expIDs := strings.Join(order, ", ") + ", all"
	exp := flag.String("exp", "all", "experiment id ("+expIDs+")")
	quick := flag.Bool("quick", false, "shrunken fast configuration")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 = per-experiment default)")
	out := flag.String("out", "", "directory to also write plot-ready CSV series into")
	flag.Parse()

	var ids []string
	if *exp == "all" {
		ids = order
	} else if _, ok := runners[*exp]; ok {
		ids = []string{*exp}
	} else {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of %s)\n", *exp, expIDs)
		flag.Usage()
		os.Exit(2)
	}
	report, err := render(ids, runCtx{quick: *quick, seed: *seed, outDir: *out})
	os.Stdout.Write(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// render runs the experiments and returns their reports in ids order, each
// non-empty one followed by a blank line; on failure, the finished reports
// and the lowest-indexed error.
func render(ids []string, rc runCtx) ([]byte, error) {
	units := make([]runner.Unit[[]byte], len(ids))
	for i, id := range ids {
		units[i] = runner.Unit[[]byte]{Name: id, Run: func() ([]byte, error) {
			var buf bytes.Buffer
			if err := runners[id](&buf, rc); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}}
	}
	bufs, err := runner.Run(units, runner.Options{
		OnDone: func(r runner.Report) {
			switch {
			case r.Skipped:
				fmt.Fprintf(os.Stderr, "  [%s skipped]\n", r.Name)
			case r.Err != nil:
				fmt.Fprintf(os.Stderr, "  [%s failed after %.1fs: %v]\n", r.Name, r.Elapsed.Seconds(), r.Err)
			default:
				fmt.Fprintf(os.Stderr, "  [%s completed in %.1fs]\n", r.Name, r.Elapsed.Seconds())
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

func pick(seed, def uint64) uint64 {
	if seed != 0 {
		return seed
	}
	return def
}

// writeCSV saves a plot-ready CSV into outDir when -out is set. Every
// experiment writes distinct file names, so concurrent runs never collide.
func writeCSV(outDir, name string, write func(w *os.File) error) error {
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runFig1(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultFig1()
	if rc.quick {
		cfg.Rows, cfg.RowServers, cfg.Measure = 4, 80, 12*sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunFig1(cfg)
	if err != nil {
		return err
	}
	experiment.FormatFig1(w, res)
	return writeCSV(rc.outDir, "fig1.csv", func(w *os.File) error { return res.WriteCSV(w) })
}

func runFig2(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultFig2()
	if rc.quick {
		cfg.RowServers, cfg.CorrSpan = 80, 12*sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunFig2(cfg)
	if err != nil {
		return err
	}
	experiment.FormatFig2(w, res)
	return nil
}

func runFig4(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultFig4()
	if rc.quick {
		cfg.RowServers, cfg.FreezeCount = 160, 32
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunFig4(cfg)
	if err != nil {
		return err
	}
	experiment.FormatFig4(w, res)
	return writeCSV(rc.outDir, "fig4.csv", func(w *os.File) error { return res.WriteCSV(w) })
}

func runFig5(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultFig5()
	if rc.quick {
		cfg.RowServers = 160
		cfg.Cycles = 1
		cfg.URatios = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunFig5(cfg)
	if err != nil {
		return err
	}
	experiment.FormatFig5(w, res)
	return writeCSV(rc.outDir, "fig5.csv", func(w *os.File) error { return res.WriteCSV(w) })
}

func runFig7(w io.Writer, rc runCtx) error {
	n := 500000
	if rc.quick {
		n = 50000
	}
	experiment.FormatFig7(w, experiment.RunFig7(pick(rc.seed, 7), n))
	return nil
}

func runFig8(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultFig8()
	if rc.quick {
		cfg.RowServers = 160
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunFig8(cfg)
	if err != nil {
		return err
	}
	experiment.FormatFig8(w, res)
	return writeCSV(rc.outDir, "fig8.csv", func(w *os.File) error { return res.WriteCSV(w) })
}

func runFig9(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultFig9()
	if rc.quick {
		cfg.RowServers, cfg.Measure = 160, 12*sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunFig9(cfg)
	if err != nil {
		return err
	}
	experiment.FormatFig9(w, res)
	return nil
}

func runFig10Table2(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultTable2()
	if rc.quick {
		cfg.RowServers = 160
		cfg.Warmup = sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunTable2(cfg)
	if err != nil {
		return err
	}
	experiment.FormatTable2(w, res)
	fmt.Fprintln(w)
	experiment.FormatFig10(w, res)
	if err := writeCSV(rc.outDir, "fig10_light.csv", func(w *os.File) error { return res.LightSer.WriteCSV(w) }); err != nil {
		return err
	}
	return writeCSV(rc.outDir, "fig10_heavy.csv", func(w *os.File) error { return res.HeavySer.WriteCSV(w) })
}

func runFig11(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultFig11()
	if rc.quick {
		cfg.RowServers, cfg.ServiceServers = 80, 16
		cfg.RequestsPerSecond = 60
		cfg.Pretrain, cfg.Measure = 12*sim.Hour, sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunFig11(cfg)
	if err != nil {
		return err
	}
	experiment.FormatFig11(w, res)
	return nil
}

// runFig11Scale is the Fig 11 comparison at the paper's deployment size: a
// 100k-server fleet whose hot rows host a 3-million-user service, scored as
// per-op/per-class p999 and SLO-miss under row capping vs the Ampere
// controller. Regimes fan across two workers; output is byte-identical at
// any GOMAXPROCS.
func runFig11Scale(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultFig11Scale()
	if rc.quick {
		cfg = experiment.QuickFig11Scale()
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunFig11Scale(cfg)
	if err != nil {
		return err
	}
	experiment.FormatFig11Scale(w, cfg, res)
	return writeCSV(rc.outDir, "fig11scale.csv", func(w *os.File) error { return res.WriteCSV(w) })
}

func runFig12(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultFig12()
	if rc.quick {
		cfg.RowServers = 160
		cfg.Warmup, cfg.Pretrain = sim.Hour, 8*sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunFig12(cfg)
	if err != nil {
		return err
	}
	experiment.FormatFig12(w, res)
	return writeCSV(rc.outDir, "fig12.csv", func(w *os.File) error { return res.WriteCSV(w) })
}

func runSpread(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultSpread()
	if rc.quick {
		cfg.RowServers, cfg.Measure = 80, 8*sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	rows, err := experiment.RunSpread(cfg)
	if err != nil {
		return err
	}
	experiment.FormatSpread(w, rows)
	return nil
}

func runOutage(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultOutage()
	if rc.quick {
		cfg.RowServers = 120
		cfg.Pretrain, cfg.Measure = 8*sim.Hour, 8*sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	rows, err := experiment.RunOutage(cfg)
	if err != nil {
		return err
	}
	experiment.FormatOutage(w, rows)
	return nil
}

func runChaos(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultChaos()
	if rc.quick {
		cfg.RowServers = 80
		cfg.Pretrain, cfg.Measure = 6*sim.Hour, 12*sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunChaos(cfg)
	if err != nil {
		return err
	}
	experiment.FormatChaos(w, res)
	return nil
}

func runAblations(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultAblation()
	if rc.quick {
		cfg.RowServers = 120
		cfg.Warmup, cfg.Pretrain, cfg.Measure = sim.Hour, 12*sim.Hour, 12*sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)

	sel, err := experiment.RunSelectionAblation(cfg)
	if err != nil {
		return err
	}
	experiment.FormatAblation(w, "freeze selection (§3.5)", sel)

	rst, err := experiment.RunRStableAblation(cfg, nil)
	if err != nil {
		return err
	}
	experiment.FormatAblation(w, "rstable hysteresis (§3.5)", rst)

	et, err := experiment.RunEtPercentileAblation(cfg, nil)
	if err != nil {
		return err
	}
	experiment.FormatAblation(w, "Et percentile (§3.6)", et)

	hor, err := experiment.RunHorizonAblation(cfg, nil)
	if err != nil {
		return err
	}
	experiment.FormatAblation(w, "RHC horizon (Lemma 3.1)", hor)

	capr, err := experiment.RunCappingAblation(cfg)
	if err != nil {
		return err
	}
	experiment.FormatCappingAblation(w, capr)
	return nil
}

// runScale runs the weak-scaling sweep, then the federated scale run (a
// million servers across 8 DCs; quick: 1,600 across 4). The single-DC sizes
// run serially (each size's wall-clock measurement needs the machine to
// itself); the federated half fans its shards across GOMAXPROCS workers,
// which does not change stdout. Wall timings go to stderr.
func runScale(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultScale()
	if rc.quick {
		cfg.RowCounts = []int{1, 5, 25} // 400 / 2k / 10k servers
		cfg.Warmup, cfg.Measure = 10*sim.Minute, 30*sim.Minute
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	rows, err := experiment.RunScale(cfg)
	if err != nil {
		return err
	}
	experiment.FormatScale(w, rows)
	experiment.FormatScaleTiming(os.Stderr, rows, cfg.Measure)

	fcfg := experiment.DefaultFedScale()
	if rc.quick {
		fcfg = experiment.QuickFedScale()
	}
	fcfg.Seed = pick(rc.seed, fcfg.Seed)
	fres, err := experiment.RunFedScale(fcfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	experiment.FormatFedScale(w, fres)
	experiment.FormatFedScaleTiming(os.Stderr, fres)
	return nil
}

// runGridstorm replays the same 20 % grid curtailment as a cliff and as a
// ramp-limited schedule over a 100k-server fleet (quick: 320 servers) and
// reports breaker trips, violation windows and recovery for each regime.
func runGridstorm(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultGridstorm()
	if rc.quick {
		cfg = experiment.QuickGridstorm()
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	runs, err := experiment.RunGridstorm(cfg)
	if err != nil {
		return err
	}
	experiment.FormatGridstorm(w, cfg, runs)
	return nil
}

// runWhatif demonstrates the counterfactual engine: snapshot the gridstorm
// cliff regime at the dip-onset journal event, self-replay to prove
// byte-identity, then replay with a ramped-budget patch and report the
// trips/violations the alternative would have avoided. Wall timings go to
// stderr; stdout is deterministic.
func runWhatif(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultGridstorm()
	if rc.quick {
		cfg = experiment.QuickGridstorm()
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunWhatif(cfg)
	if err != nil {
		return err
	}
	experiment.FormatWhatif(w, res)
	return nil
}

// runTournament forks one factual gridstorm cliff run at dip onset and
// replays the default policy grid (selection × Et estimator × unfreeze ×
// horizon × ramp) from the shared snapshot, ranking the contenders by
// trips, violation ticks, frozen capacity and completed jobs. Replays fan
// across GOMAXPROCS workers; output is byte-identical at any worker count.
// -out additionally writes the ranked result as tournament.json.
func runTournament(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultTournament()
	if rc.quick {
		cfg = experiment.QuickTournament()
	}
	cfg.Grid.Seed = pick(rc.seed, cfg.Grid.Seed)
	res, err := experiment.RunTournament(cfg)
	if err != nil {
		return err
	}
	experiment.FormatTournament(w, res)
	return writeCSV(rc.outDir, "tournament.json", func(w *os.File) error { return res.WriteJSON(w) })
}

func runTable3(w io.Writer, rc runCtx) error {
	cfg := experiment.DefaultTable3()
	if rc.quick {
		cfg.RowServers = 160
		cfg.Warmup, cfg.Pretrain, cfg.Measure = sim.Hour, 12*sim.Hour, 12*sim.Hour
	}
	cfg.Seed = pick(rc.seed, cfg.Seed)
	res, err := experiment.RunTable3(cfg)
	if err != nil {
		return err
	}
	experiment.FormatTable3(w, res)
	return nil
}
