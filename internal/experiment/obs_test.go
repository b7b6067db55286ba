package experiment

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/breaker"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// newObservedRig assembles a small fully instrumented deployment the way
// cmd/powermon does: monitor, TSDB, scheduler, controller, observational
// breakers, and an empty-plan chaos injector all registered on one registry.
func newObservedRig(t *testing.T) (*stack.Stack, *obs.Registry, *obs.Journal) {
	t.Helper()
	spec := cluster.DefaultSpec()
	spec.Rows = 2
	spec.RacksPerRow = 2
	spec.ServersPerRack = 10

	product := workload.DefaultProduct("mixed", stack.JobsPerMinute(spec, 0.8, spec.TotalServers()))

	rig, err := stack.New(stack.Config{
		Seed:     7,
		Cluster:  spec,
		Products: []workload.Product{product},
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	journal := obs.NewJournal(256)
	rig.Mon.Instrument(reg)
	rig.DB.Instrument(reg)
	rig.Sched.Instrument(reg)
	journal.Instrument(reg)

	// An interactive service on a handful of servers, the way powermon
	// attaches one. No containers are reserved: serving only listens to host
	// speed, so the cluster physics (and the journal) stay identical to a
	// rig without it.
	svcHosts := rig.Cluster.Servers[:4]
	svc, err := service.New(rig.Eng, 7, service.Config{
		Classes: service.DefaultClasses(10_000, 0.05),
	}, svcHosts)
	if err != nil {
		t.Fatal(err)
	}
	svc.Instrument(reg)
	svc.Start()
	rig.StartBase()

	inj, err := chaos.New(rig.Eng, chaos.Plan{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inj.Instrument(reg)

	budget := spec.RowRatedPowerW() / 1.25
	domains := make([]core.Domain, spec.Rows)
	for r := 0; r < spec.Rows; r++ {
		domains[r] = core.Domain{
			Name: fmt.Sprintf("row/%d", r), Servers: rig.Cluster.RowIDs(r), BudgetW: budget,
			Kr: DefaultKr,
		}
	}
	ctl, err := core.New(rig.Eng, inj.WrapReader(rig.Mon), inj.WrapAPI(rig.Sched),
		core.DefaultConfig(), domains)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Instrument(reg, journal)
	ctl.Start()

	for r := 0; r < spec.Rows; r++ {
		b, err := breaker.New(rig.Eng, breaker.DefaultConfig(budget), rig.Cluster.Row(r))
		if err != nil {
			t.Fatal(err)
		}
		b.Instrument(reg, fmt.Sprintf("row/%d", r))
		b.Start()
	}
	return rig, reg, journal
}

// TestFullRigMetricsCoverage is the acceptance check behind powermon's
// /metrics: after a short run, one scrape carries live families from every
// subsystem — controller, monitor, TSDB, scheduler, breakers, and the chaos
// injector.
func TestFullRigMetricsCoverage(t *testing.T) {
	rig, reg, journal := newObservedRig(t)
	if err := rig.Run(sim.Time(30 * sim.Minute)); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// One representative family per subsystem, with the value it must have
	// reached after 30 simulated minutes (31 sweeps/ticks: t=0 inclusive).
	for _, want := range []string{
		`ampere_ticks_total{domain="row/0"} 31`,
		`ampere_ticks_total{domain="row/1"} 31`,
		"monitor_sweeps_total 31",
		"tsdb_appends_total ",
		"tsdb_series 7",
		"scheduler_jobs_submitted_total ",
		`breaker_evaluations_total{domain="row/0"} `,
		"chaos_api_failures_total 0",
		"chaos_reads_blacked_out_total 0",
		"obs_journal_events_total 62",
		"obs_journal_evicted_total 0",
		`service_slo_miss_total{class="steady",op="GET"} `,
		"service_windows_total 180",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Every subsystem prefix must appear with at least one sample line.
	for _, prefix := range []string{"ampere_", "monitor_", "tsdb_", "scheduler_", "breaker_", "chaos_", "service_"} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* samples in scrape", prefix)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}

	// The journal saw one event per domain per tick.
	if got, want := journal.Total(), uint64(62); got != want {
		t.Errorf("journal Total = %d, want %d", got, want)
	}

	// The empty-plan injector must be a pure pass-through: identical rig,
	// no wrappers, same seed → identical controller decisions.
	spec := rig.Cluster.Spec
	plain, err := stack.New(stack.Config{
		Seed:    7,
		Cluster: spec,
		Products: []workload.Product{workload.DefaultProduct("mixed",
			stack.JobsPerMinute(spec, 0.8, spec.TotalServers()))},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain.StartBase()
	budget := rig.Cluster.Spec.RowRatedPowerW() / 1.25
	domains := make([]core.Domain, 2)
	for r := 0; r < 2; r++ {
		domains[r] = core.Domain{Name: fmt.Sprintf("row/%d", r), Servers: plain.Cluster.RowIDs(r),
			BudgetW: budget, Kr: DefaultKr}
	}
	pctl, err := core.New(plain.Eng, plain.Mon, plain.Sched, core.DefaultConfig(), domains)
	if err != nil {
		t.Fatal(err)
	}
	pctl.Start()
	if err := plain.Run(sim.Time(30 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	evs := journal.Snapshot()
	for r := 0; r < 2; r++ {
		if got, want := evs[len(evs)-2+r].Frozen, pctl.FrozenCount(r); got != want {
			t.Errorf("row/%d frozen with injector = %d, without = %d", r, got, want)
		}
	}
}
