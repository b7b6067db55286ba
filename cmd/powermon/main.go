// Command powermon runs the power monitor against a live simulated cluster
// and serves its time-series database over the RESTful HTTP API of §3.3.
// The simulation advances continuously (one simulated minute per real
// tick), optionally under Ampere control, so the API can be explored with
// curl while power moves:
//
//	powermon -addr :8080 -tick 200ms -ampere
//	powermon -dr-at 30 -dr-depth 0.2 -dr-dwell 60 -dr-ramp 0.02
//	curl 'http://localhost:8080/series'
//	curl 'http://localhost:8080/query?name=row/0&from=0'
//	curl 'http://localhost:8080/latest?name=dc'
//	curl 'http://localhost:8080/status'
//	curl 'http://localhost:8080/domains'
//	curl 'http://localhost:8080/healthz'
//	curl 'http://localhost:8080/metrics'
//	curl 'http://localhost:8080/events?n=10'
//	curl 'http://localhost:8080/whatif?alt=ramp=0.02&horizon=60'
//
// With -obs (the default) every subsystem registers its metrics on one
// registry served in Prometheus text format at /metrics, and each control
// tick appends a decision event to a ring-buffer journal served at /events.
// -pprof additionally mounts net/http/pprof under /debug/pprof/. On SIGINT
// or SIGTERM the server drains in-flight requests and, when -journal-out is
// set, flushes the journal to that path as JSONL before exiting.
//
// The -dr-* flags schedule one demand-response event: at -dr-at simulated
// minutes every row budget dips by -dr-depth for -dr-dwell minutes, applied
// -dr-ramp per tick (0 = cliff). Breakers follow the effective budget, so
// /metrics shows the heat consequences of the chosen ramp rate live.
//
// powermon prints nothing on stdout; its log goes to stderr. It exits 2 on a
// bad flag and 1 when the configuration is refused or serving fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/breaker"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, serves until SIGINT or SIGTERM
// with its log on stderr, and returns the exit code. stdout stays unwritten.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("powermon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.DurationVar(&cfg.tick, "tick", 200*time.Millisecond, "real time per simulated minute")
	fs.IntVar(&cfg.rowServers, "row-servers", 200, "servers per row (a multiple of the 20-server rack)")
	fs.IntVar(&cfg.rows, "rows", 2, "rows")
	fs.Float64Var(&cfg.target, "target", 0.75, "power target as fraction of rated, in (0,1]")
	fs.Float64Var(&cfg.ro, "ro", 0.25, "over-provisioning ratio, finite and ≥ 0")
	fs.BoolVar(&cfg.ampere, "ampere", true, "run the Ampere controller")
	fs.Uint64Var(&cfg.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&cfg.obs, "obs", true, "serve /metrics and /events")
	fs.BoolVar(&cfg.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	fs.IntVar(&cfg.journalCap, "journal-cap", obs.DefaultJournalCap, "control-decision journal capacity (events)")
	fs.StringVar(&cfg.journalOut, "journal-out", "", "flush the journal to this JSONL file on shutdown")
	fs.Float64Var(&cfg.drAt, "dr-at", 0, "demand-response event start, simulated minutes (0 = none)")
	fs.Float64Var(&cfg.drDepth, "dr-depth", 0.2, "demand-response curtailment depth, fraction of budget")
	fs.Float64Var(&cfg.drDwell, "dr-dwell", 60, "demand-response dwell, simulated minutes")
	fs.Float64Var(&cfg.drRamp, "dr-ramp", 0.02, "budget ramp limit per tick as fraction of base (0 = cliff)")
	fs.IntVar(&cfg.svcUsers, "service-users", 0,
		"simulated users of a pinned interactive service (0 = none); adds service_* metric families")
	fs.Float64Var(&cfg.svcRPSPerUser, "service-rps-per-user", 0.05, "per-user request rate (req/s)")
	fs.IntVar(&cfg.svcInstances, "service-instances", 4, "service instances pinned across the fleet")
	fs.IntVar(&cfg.svcContainers, "service-containers", 8, "containers reserved per service instance")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	if err := serve(cfg, log.New(stderr, "", log.LstdFlags)); err != nil {
		fmt.Fprintln(stderr, "powermon:", err)
		return 1
	}
	return 0
}

type runConfig struct {
	addr       string
	tick       time.Duration
	rows       int
	rowServers int
	target     float64
	ro         float64
	ampere     bool
	seed       uint64
	obs        bool
	pprof      bool
	journalCap int
	journalOut string
	drAt       float64
	drDepth    float64
	drDwell    float64
	drRamp     float64
	// svcUsers > 0 pins an interactive service across the fleet (see the
	// -service-users flag); all four knobs are part of the stack identity
	// the /whatif offline rebuild reproduces.
	svcUsers      int
	svcRPSPerUser float64
	svcInstances  int
	svcContainers int
}

type status struct {
	mu         sync.Mutex
	SimTime    string    `json:"sim_time"`
	SimMinutes int64     `json:"sim_minutes"`
	RowPowerW  []float64 `json:"row_power_w"`
	BudgetW    float64   `json:"row_budget_w"`
	// EffectiveW is each row's currently enforced budget — it departs from
	// BudgetW while a demand-response event is in force.
	EffectiveW []float64 `json:"effective_budget_w,omitempty"`
	Frozen     []int     `json:"frozen_per_row"`
	Violations []int64   `json:"violations_per_row"`
}

// maxMinutes bounds a demand-response event's start and dwell, so
// minutesToTime cannot overflow: ten years, scenario.MaxEventMinutes (a test
// holds them equal; powermon does not link the scenario loader).
const maxMinutes = 10 * 365 * 24 * 60

// check refuses a configuration before anything is built, naming the flag
// at fault.
func (cfg runConfig) check() error {
	switch {
	// Rows are whole racks: RowSpec would floor a partial one away while the
	// log line and the /whatif ConfigTag report the requested size.
	case cfg.rowServers <= 0 || cfg.rowServers%20 != 0:
		return fmt.Errorf("row-servers %d must be a positive multiple of 20", cfg.rowServers)
	case !(cfg.target > 0 && cfg.target <= 1):
		return fmt.Errorf("target %v outside (0,1]", cfg.target)
	case !(cfg.ro >= 0) || math.IsInf(cfg.ro, 1):
		// The row budget is rated/(1+ro): finite and positive only here.
		return fmt.Errorf("ro %v must be a finite number ≥ 0", cfg.ro)
	case cfg.svcUsers > 0 && (cfg.svcInstances < 1 || cfg.svcInstances > cfg.rows*cfg.rowServers):
		return fmt.Errorf("service-instances %d outside [1,%d]", cfg.svcInstances, cfg.rows*cfg.rowServers)
	case !(cfg.drAt >= 0 && cfg.drAt <= maxMinutes):
		return fmt.Errorf("dr-at %v outside [0,%d] minutes", cfg.drAt, maxMinutes)
	case cfg.drAt == 0: // no demand-response event
	case !(cfg.drDepth > 0 && cfg.drDepth < 1):
		return fmt.Errorf("dr-depth %v outside (0,1)", cfg.drDepth)
	case !(cfg.drDwell > 0 && cfg.drDwell <= maxMinutes):
		return fmt.Errorf("dr-dwell %v outside (0,%d] minutes", cfg.drDwell, maxMinutes)
	case !(cfg.drRamp >= 0 && cfg.drRamp <= 1):
		return fmt.Errorf("dr-ramp %v outside [0,1]", cfg.drRamp)
	case !cfg.ampere:
		return fmt.Errorf("dr-at needs -ampere: the schedule is enforced by the controller")
	}
	return nil
}

// buildStack builds the powermon fleet and starts it. The live server and
// the /whatif offline replays both build through it: identical construction
// and start order is what makes an offline rebuild reproduce the live
// journal byte-for-byte (the whatif witness-verification contract). reg may
// be nil (the offline replay: metrics unregistered but journal still fed);
// journal may be nil only when cfg.obs is false.
func buildStack(cfg runConfig, reg *obs.Registry, journal *obs.Journal) (*fleet.Fleet, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	spec := stack.RowSpec(cfg.rows, cfg.rowServers)
	budget := spec.RowRatedPowerW() / (1 + cfg.ro)
	product := workload.DefaultProduct("mixed", stack.JobsPerMinute(spec, cfg.target, spec.TotalServers()))
	f := &fleet.Fleet{
		Stack: stack.Config{Seed: cfg.seed, Cluster: spec, Products: []workload.Product{product},
			Retention: 7 * 24 * 60}, // one week of minutes per series
		RowBudgetW: budget,
		RowName:    "row/%d",
		Registry:   reg,
		Journal:    journal,
	}
	if cfg.ampere {
		f.Control = &fleet.Control{Rows: cfg.rows, Margin: 1, Kr: stack.DefaultKr,
			Config: core.DefaultConfig()}
		if cfg.drAt > 0 {
			// One demand-response event, identical for every row: dip at
			// dr-at for dr-dwell minutes, ramp-limited by dr-ramp.
			sched := &core.BudgetSchedule{
				RampFrac: cfg.drRamp,
				Steps: []core.BudgetStep{
					{At: minutesToTime(cfg.drAt), BudgetW: budget * (1 - cfg.drDepth)},
					{At: minutesToTime(cfg.drAt + cfg.drDwell), BudgetW: budget},
				},
			}
			f.Control.Schedule = func(int) *core.BudgetSchedule { return sched }
		}
	}
	if cfg.obs {
		// Observational breakers: an overload shows on /metrics (heat, trips)
		// without blast-radius consequences in the sim.
		bcfg := breaker.DefaultConfig(budget)
		f.Breaker = &bcfg
	}
	if cfg.svcUsers > 0 {
		// An interactive service across the fleet, serving cfg.svcUsers users
		// as steady/diurnal/flash client classes.
		f.Service = &fleet.Service{Rows: cfg.rows, Instances: cfg.svcInstances,
			Containers: cfg.svcContainers,
			Config:     service.Config{Classes: service.DefaultClasses(cfg.svcUsers, cfg.svcRPSPerUser)}}
	}
	if err := f.Build(); err != nil {
		return nil, err
	}
	f.Rig.StartBase()
	if f.Svc != nil {
		f.Svc.Start()
	}
	f.Start()
	return f, nil
}

// serve runs the simulation and its HTTP API until SIGINT or SIGTERM, then
// drains and flushes the journal. Everything it refuses, it refuses before
// it listens.
func serve(cfg runConfig, logger *log.Logger) error {
	switch {
	case cfg.tick <= 0:
		return fmt.Errorf("tick %v must be positive", cfg.tick)
	case cfg.journalCap <= 0:
		// obs.NewJournal would take it for the default capacity.
		return fmt.Errorf("journal-cap %d must be positive", cfg.journalCap)
	}
	var (
		reg     *obs.Registry
		journal *obs.Journal
	)
	if cfg.obs {
		reg = obs.NewRegistry()
		journal = obs.NewJournal(cfg.journalCap)
		journal.Instrument(reg)
	}
	sk, err := buildStack(cfg, reg, journal)
	if err != nil {
		return err
	}
	rig, controller, budget := sk.Rig, sk.Controller, sk.RowBudgetW
	if cfg.obs {
		// An empty-plan chaos injector injects nothing, but its counters
		// register on the scrape, so operators watch the same chaos_*
		// families in drills and in production.
		inj, err := chaos.New(rig.Eng, chaos.Plan{Seed: cfg.seed})
		if err != nil {
			return err
		}
		inj.Instrument(reg)
	}

	st := &status{BudgetW: budget}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Simulation loop: one simulated minute per tick. The engine is
	// single-threaded; only the thread-safe TSDB, registry, journal and the
	// mutex-guarded status snapshot are shared with HTTP handlers.
	simDone := make(chan struct{})
	go func() {
		defer close(simDone)
		ticker := time.NewTicker(cfg.tick)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			next := rig.Eng.Now().Add(sim.Minute)
			if err := rig.Run(next); err != nil {
				logger.Printf("simulation error: %v", err)
				return
			}
			st.mu.Lock()
			st.SimTime = rig.Eng.Now().String()
			st.SimMinutes = rig.Eng.Now().Minute()
			st.RowPowerW = st.RowPowerW[:0]
			st.EffectiveW = st.EffectiveW[:0]
			st.Frozen = st.Frozen[:0]
			st.Violations = st.Violations[:0]
			for r := 0; r < cfg.rows; r++ {
				p, _ := rig.Mon.RowPower(r)
				st.RowPowerW = append(st.RowPowerW, p)
				if controller != nil {
					st.EffectiveW = append(st.EffectiveW, controller.EffectiveBudget(r))
					st.Frozen = append(st.Frozen, controller.FrozenCount(r))
					st.Violations = append(st.Violations, controller.Stats(r).Violations)
				}
			}
			st.mu.Unlock()
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/", rig.DB.Handler())
	if controller != nil {
		// The controller's operator API (per-domain status and health) is
		// internally locked, so it serves live alongside the running
		// simulation goroutine.
		h := controller.Handler()
		mux.Handle("/domains", h)
		mux.Handle("/domains/", h)
		mux.Handle("/healthz", h)
	}
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	if journal != nil {
		mux.Handle("/events", journal.Handler())
	}
	if journal != nil && controller != nil {
		// Counterfactual replays: fork the live run at a journal event and
		// re-run it offline with an alternative policy (see whatif.go).
		ws := &whatifServer{
			cfg:     cfg,
			journal: journal,
			met:     whatif.NewMetrics(reg),
			now: func() sim.Time {
				st.mu.Lock()
				defer st.mu.Unlock()
				return minutesToTime(float64(st.SimMinutes))
			},
		}
		mux.HandleFunc("GET /whatif", ws.handle)
	}
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		buf, err := json.Marshal(st)
		st.mu.Unlock()
		if err != nil {
			http.Error(w, "response encoding failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(buf, '\n'))
	})

	srv := &http.Server{Addr: cfg.addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Printf("powermon: serving %d×%d servers on %s (budget %.0f W/row, ampere=%v, obs=%v)",
		cfg.rows, cfg.rowServers, cfg.addr, budget, cfg.ampere, cfg.obs)

	select {
	case err := <-errc:
		// The listener died on its own; nothing to drain.
		stop()
		<-simDone
		return err
	case <-ctx.Done():
	}

	logger.Printf("powermon: shutting down")
	<-simDone
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Printf("powermon: shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return flushJournal(journal, cfg.journalOut, logger)
}

// minutesToTime converts a (possibly fractional) simulated-minute offset to
// an absolute sim.Time.
func minutesToTime(m float64) sim.Time { return sim.Time(m * float64(sim.Minute)) }

// flushJournal writes the journal to path as JSONL. A nil journal or empty
// path is a no-op, so plain Ctrl-C exits stay silent.
func flushJournal(journal *obs.Journal, path string, logger *log.Logger) error {
	if journal == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := journal.WriteJSONL(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	logger.Printf("powermon: journal flushed to %s (%d events)", path, journal.Len())
	return nil
}
