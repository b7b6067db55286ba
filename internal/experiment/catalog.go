package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/sim"
)

// This file is the experiment catalogue: every -exp id of cmd/ampere-exp,
// declared once with its paper configuration, its -quick override, where
// -seed lands, its run, its report, its checked claims (claims.go) and the
// plot-ready files -out writes. The CLI, its golden test and BenchmarkQuick
// are loops over it.

// Experiment is one catalogue entry.
type Experiment struct {
	ID string
	// Run runs the experiment at paper scale, or at its -quick sizes, with
	// its own seed replaced by seed unless that is 0. It writes the report to
	// w and, when outDir is set, its plot-ready files into outDir, and
	// returns the claims it checked on the reported result (at -quick, those
	// not marked PaperScale). A claim that does not hold is not an error.
	Run func(w io.Writer, quick bool, seed uint64, outDir string) ([]Claim, error)
	// config is the configuration Run runs.
	config func(quick bool, seed uint64) any
}

// File is one plot-ready file an experiment writes under -out.
type File struct {
	Name  string
	Write func(io.Writer) error
}

// entry declares an experiment over its configuration C and result R.
type entry[C, R any] struct {
	paper  func() C
	quick  func(*C)
	seed   func(*C, uint64)
	run    func(C) (R, error)
	report func(io.Writer, C, R)
	claims func(C, R) []Claim
	files  func(R) []File // nil: -out writes nothing
}

func (e entry[C, R]) as(id string) Experiment {
	config := func(quick bool, seed uint64) C {
		c := e.paper()
		if quick {
			e.quick(&c)
		}
		if seed != 0 {
			e.seed(&c, seed)
		}
		return c
	}
	return Experiment{
		ID: id,
		Run: func(w io.Writer, quick bool, seed uint64, outDir string) ([]Claim, error) {
			c := config(quick, seed)
			res, err := e.run(c)
			if err != nil {
				return nil, err
			}
			e.report(w, c, res)
			claims := e.claims(c, res)
			if quick {
				claims = slices.DeleteFunc(claims, func(cl Claim) bool { return cl.PaperScale })
			}
			if outDir != "" && e.files != nil {
				err = writeFiles(outDir, e.files(res))
			}
			return claims, err
		},
		config: func(quick bool, seed uint64) any { return config(quick, seed) },
	}
}

// plain adapts a report that does not read the configuration.
func plain[C, R any](format func(io.Writer, R)) func(io.Writer, C, R) {
	return func(w io.Writer, _ C, r R) { format(w, r) }
}

// writeFiles saves plot-ready files into dir. Every experiment writes
// distinct names, so concurrent runs never collide.
func writeFiles(dir string, files []File) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, file := range files {
		f, err := os.Create(filepath.Join(dir, file.Name))
		if err != nil {
			return err
		}
		err = file.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the experiment an -exp id names; fig10 is table2, whose one
// run prints both.
func Lookup(id string) (Experiment, bool) {
	if id == "fig10" {
		id = "table2"
	}
	for _, e := range Catalog() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fig7Config sizes the duration-sampler draw of Fig 7.
type fig7Config struct {
	seed    uint64
	samples int
}

// ablationSweeps are the one-knob tables of -exp ablations, in print order:
// the heavy controlled day rerun once per variant under its policy patch.
var ablationSweeps = []struct {
	title    string
	variants []AblationVariant
}{
	// The paper freezes the hottest servers: low-power ones "may have more
	// computation capacity left and thus freezing them may result in a
	// higher cost".
	{"freeze selection (§3.5)", []AblationVariant{
		{"hottest", "policy=hottest"}, {"coldest", "policy=coldest"}, {"random", "policy=random"}}},
	// "the value of rstable does not affect the performance much"; near 1
	// the hysteresis is off, which shows its churn cost.
	{"rstable hysteresis (§3.5)", []AblationVariant{
		{"rstable=0.50", "rstable=0.5"}, {"rstable=0.80", "rstable=0.8"}, {"rstable=0.95", "rstable=0.95"}}},
	// Lower percentiles leave a thinner safety margin; the paper's 99.5 is
	// deliberately conservative.
	{"Et percentile (§3.6)", []AblationVariant{
		{"etpct=50.0", "et-percentile=50"}, {"etpct=90.0", "et-percentile=90"}, {"etpct=99.5", "et-percentile=99.5"}}},
	// Horizon 1 is the paper's SPCP, deeper ones the exact RHC; Lemma 3.1
	// predicts little difference under normal demand.
	{"RHC horizon (Lemma 3.1)", []AblationVariant{
		{"horizon=1", "horizon=1"}, {"horizon=5", "horizon=5"}, {"horizon=15", "horizon=15"}}},
}

type ablationsResult struct {
	sweeps  [][]AblationOutcome
	capping []CappingAblationRow
}

func runAblations(cfg AmpereRunConfig) (r ablationsResult, err error) {
	r.sweeps = make([][]AblationOutcome, len(ablationSweeps))
	for i, s := range ablationSweeps {
		if r.sweeps[i], err = RunAblation(cfg, s.variants); err != nil {
			return r, err
		}
	}
	r.capping, err = RunCappingAblation(cfg)
	return r, err
}

// scaleConfig is -exp scale: the single-DC weak-scaling sweep, then the
// federated run (a million servers across 8 DCs; quick: 1,600 across 4).
type scaleConfig struct {
	single ScaleConfig
	fed    FedScaleConfig
}

type scaleResult struct {
	rows []ScaleRow
	fed  *FedScaleResult
}

// Catalog returns every experiment, in -exp all order.
func Catalog() []Experiment {
	return []Experiment{
		entry[Fig1Config, *Fig1Result]{
			paper:  DefaultFig1,
			quick:  func(c *Fig1Config) { c.Rows, c.RowServers, c.Measure = 4, 80, 12*sim.Hour },
			seed:   func(c *Fig1Config, s uint64) { c.Seed = s },
			run:    RunFig1,
			report: plain[Fig1Config](FormatFig1),
			claims: fig1Claims,
			files:  func(r *Fig1Result) []File { return []File{{"fig1.csv", r.WriteCSV}} },
		}.as("fig1"),
		entry[Fig2Config, *Fig2Result]{
			paper:  DefaultFig2,
			quick:  func(c *Fig2Config) { c.RowServers, c.CorrSpan = 80, 12*sim.Hour },
			seed:   func(c *Fig2Config, s uint64) { c.Seed = s },
			run:    RunFig2,
			report: plain[Fig2Config](FormatFig2),
			claims: fig2Claims,
		}.as("fig2"),
		entry[Fig4Config, *Fig4Result]{
			paper:  DefaultFig4,
			quick:  func(c *Fig4Config) { c.RowServers, c.FreezeCount = 160, 32 },
			seed:   func(c *Fig4Config, s uint64) { c.Seed = s },
			run:    RunFig4,
			report: plain[Fig4Config](FormatFig4),
			claims: fig4Claims,
			files:  func(r *Fig4Result) []File { return []File{{"fig4.csv", r.WriteCSV}} },
		}.as("fig4"),
		entry[Fig5Config, *Fig5Result]{
			paper: DefaultFig5,
			quick: func(c *Fig5Config) {
				c.RowServers, c.Cycles = 160, 1
				c.URatios = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
			},
			seed:   func(c *Fig5Config, s uint64) { c.Seed = s },
			run:    RunFig5,
			report: plain[Fig5Config](FormatFig5),
			claims: fig5Claims,
			files:  func(r *Fig5Result) []File { return []File{{"fig5.csv", r.WriteCSV}} },
		}.as("fig5"),
		entry[fig7Config, *Fig7Result]{
			paper:  func() fig7Config { return fig7Config{seed: 7, samples: 500000} },
			quick:  func(c *fig7Config) { c.samples = 50000 },
			seed:   func(c *fig7Config, s uint64) { c.seed = s },
			run:    func(c fig7Config) (*Fig7Result, error) { return RunFig7(c.seed, c.samples), nil },
			report: plain[fig7Config](FormatFig7),
			claims: fig7Claims,
		}.as("fig7"),
		entry[Fig8Config, *Fig8Result]{
			paper:  DefaultFig8,
			quick:  func(c *Fig8Config) { c.RowServers = 160 },
			seed:   func(c *Fig8Config, s uint64) { c.Seed = s },
			run:    RunFig8,
			report: plain[Fig8Config](FormatFig8),
			claims: fig8Claims,
			files:  func(r *Fig8Result) []File { return []File{{"fig8.csv", r.WriteCSV}} },
		}.as("fig8"),
		entry[Fig9Config, *Fig9Result]{
			paper:  DefaultFig9,
			quick:  func(c *Fig9Config) { c.RowServers, c.Measure = 160, 12*sim.Hour },
			seed:   func(c *Fig9Config, s uint64) { c.Seed = s },
			run:    RunFig9,
			report: plain[Fig9Config](FormatFig9),
			claims: fig9Claims,
		}.as("fig9"),
		entry[Table2Config, *Table2Result]{
			paper: DefaultTable2,
			quick: func(c *Table2Config) { c.RowServers, c.Warmup = 160, sim.Hour },
			seed:  func(c *Table2Config, s uint64) { c.Seed = s },
			run:   RunTable2,
			report: func(w io.Writer, _ Table2Config, r *Table2Result) {
				FormatTable2(w, r)
				fmt.Fprintln(w)
				FormatFig10(w, r)
			},
			claims: table2Claims,
			files: func(r *Table2Result) []File {
				return []File{{"fig10_light.csv", r.LightSer.WriteCSV}, {"fig10_heavy.csv", r.HeavySer.WriteCSV}}
			},
		}.as("table2"),
		entry[Fig11Config, *Fig11Result]{
			paper: DefaultFig11,
			quick: func(c *Fig11Config) {
				c.RowServers, c.ServiceServers, c.RequestsPerSecond = 80, 16, 60
				c.Pretrain, c.Measure = 12*sim.Hour, sim.Hour
			},
			seed:   func(c *Fig11Config, s uint64) { c.Seed = s },
			run:    RunFig11,
			report: plain[Fig11Config](FormatFig11),
			claims: fig11Claims,
		}.as("fig11"),
		// Fig 11 at the paper's deployment size: a 100k-server fleet whose hot
		// rows host a 3-million-user service, row capping vs Ampere.
		entry[Fig11ScaleConfig, *Fig11ScaleResult]{
			paper: DefaultFig11Scale,
			// Fleet and population shrink; every per-server and per-instance
			// intensity (utilization, ρ, budget pressure) stays.
			quick: func(c *Fig11ScaleConfig) {
				c.Rows, c.RowServers, c.ServiceRows, c.ServicePerRow = 3, 80, 1, 8
				c.ServiceUsers, c.RPSPerUser = 30_000, 0.0155
				c.Warmup, c.Measure = 30*sim.Minute, 40*sim.Minute
			},
			seed:   func(c *Fig11ScaleConfig, s uint64) { c.Seed = s },
			run:    RunFig11Scale,
			report: FormatFig11Scale,
			claims: fig11ScaleClaims,
			files:  func(r *Fig11ScaleResult) []File { return []File{{"fig11scale.csv", r.WriteCSV}} },
		}.as("fig11scale"),
		entry[Fig12Config, *Fig12Result]{
			paper:  DefaultFig12,
			quick:  func(c *Fig12Config) { c.RowServers, c.Warmup, c.Pretrain = 160, sim.Hour, 8*sim.Hour },
			seed:   func(c *Fig12Config, s uint64) { c.Seed = s },
			run:    RunFig12,
			report: plain[Fig12Config](FormatFig12),
			claims: fig12Claims,
			files:  func(r *Fig12Result) []File { return []File{{"fig12.csv", r.WriteCSV}} },
		}.as("fig12"),
		entry[Table3Config, *Table3Result]{
			paper: DefaultTable3,
			quick: func(c *Table3Config) {
				c.RowServers = 160
				c.Warmup, c.Pretrain, c.Measure = sim.Hour, 12*sim.Hour, 12*sim.Hour
			},
			seed:   func(c *Table3Config, s uint64) { c.Seed = s },
			run:    RunTable3,
			report: plain[Table3Config](FormatTable3),
			claims: table3Claims,
		}.as("table3"),
		entry[SpreadConfig, []SpreadOutcome]{
			paper:  DefaultSpread,
			quick:  func(c *SpreadConfig) { c.RowServers, c.Measure = 80, 8*sim.Hour },
			seed:   func(c *SpreadConfig, s uint64) { c.Seed = s },
			run:    RunSpread,
			report: plain[SpreadConfig](FormatSpread),
			claims: spreadClaims,
		}.as("spread"),
		entry[OutageConfig, []OutageOutcome]{
			paper:  DefaultOutage,
			quick:  func(c *OutageConfig) { c.RowServers, c.Pretrain, c.Measure = 120, 8*sim.Hour, 8*sim.Hour },
			seed:   func(c *OutageConfig, s uint64) { c.Seed = s },
			run:    RunOutage,
			report: plain[OutageConfig](FormatOutage),
			claims: outageClaims,
		}.as("outage"),
		entry[ChaosConfig, *ChaosResult]{
			paper:  DefaultChaos,
			quick:  func(c *ChaosConfig) { c.RowServers, c.Pretrain, c.Measure = 80, 6*sim.Hour, 12*sim.Hour },
			seed:   func(c *ChaosConfig, s uint64) { c.Seed = s },
			run:    RunChaos,
			report: plain[ChaosConfig](FormatChaos),
			claims: chaosClaims,
		}.as("chaos"),
		entry[AmpereRunConfig, ablationsResult]{
			paper: DefaultAblation,
			quick: func(c *AmpereRunConfig) {
				c.Controlled.RowServers = 120
				c.Warmup, c.Pretrain, c.Measure = sim.Hour, 12*sim.Hour, 12*sim.Hour
			},
			seed: func(c *AmpereRunConfig, s uint64) { c.Controlled.Seed = s },
			run:  runAblations,
			report: func(w io.Writer, _ AmpereRunConfig, r ablationsResult) {
				for i, s := range ablationSweeps {
					FormatAblation(w, s.title, r.sweeps[i])
				}
				FormatCappingAblation(w, r.capping)
			},
			claims: ablationsClaims,
		}.as("ablations"),
		// The single-DC sizes run serially (each size's wall-clock measurement
		// needs the machine to itself); both halves' timings go to stderr.
		entry[scaleConfig, scaleResult]{
			paper: func() scaleConfig { return scaleConfig{DefaultScale(), DefaultFedScale()} },
			quick: func(c *scaleConfig) {
				c.single.RowCounts = []int{1, 5, 25} // 400 / 2k / 10k servers
				c.single.Warmup, c.single.Measure = 10*sim.Minute, 30*sim.Minute
				c.fed.DCs, c.fed.RowsPerDC = 4, 1
			},
			seed: func(c *scaleConfig, s uint64) { c.single.Seed, c.fed.Seed = s, s },
			run: func(c scaleConfig) (r scaleResult, err error) {
				if r.rows, err = RunScale(c.single); err == nil {
					r.fed, err = RunFedScale(c.fed)
				}
				return r, err
			},
			report: func(w io.Writer, c scaleConfig, r scaleResult) {
				FormatScale(w, r.rows)
				FormatScaleTiming(os.Stderr, r.rows, c.single.Measure)
				fmt.Fprintln(w)
				FormatFedScale(w, r.fed)
				FormatFedScaleTiming(os.Stderr, r.fed)
			},
			claims: scaleClaims,
		}.as("scale"),
		// The same 20 % grid curtailment as a cliff and as a ramp-limited
		// schedule over a 100k-server fleet (quick: 320 servers).
		entry[GridstormConfig, []GridstormRun]{
			paper:  DefaultGridstorm,
			quick:  func(c *GridstormConfig) { *c = QuickGridstorm() },
			seed:   func(c *GridstormConfig, s uint64) { c.Seed = s },
			run:    RunGridstorm,
			report: FormatGridstorm,
			claims: gridstormClaims,
		}.as("gridstorm"),
		entry[TournamentConfig, *TournamentResult]{
			paper: DefaultTournament,
			// The quick grid, with the full tournament's per-instance service
			// intensity.
			quick: func(c *TournamentConfig) {
				g := QuickGridstorm()
				g.ServiceUsers, g.ServiceRPSPerUser = 40_000, 0.0116
				g.ServicePerRow, g.ServiceContainers = c.Grid.ServicePerRow, c.Grid.ServiceContainers
				*c = TournamentConfig{Grid: g, Patches: DefaultTournamentPatches(g)}
			},
			seed:   func(c *TournamentConfig, s uint64) { c.Grid.Seed = s },
			run:    RunTournament,
			report: plain[TournamentConfig](FormatTournament),
			claims: tournamentClaims,
			files:  func(r *TournamentResult) []File { return []File{{"tournament.json", r.WriteJSON}} },
		}.as("tournament"),
	}
}
