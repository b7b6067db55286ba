// Package fleet builds a controlled row fleet from one value: a stack and,
// over its rows, the controller (one domain per row), the breakers, the
// capper and the pinned service its caller asks for, with the rule that keeps
// each row's protections on the budget its domain enforces. The experiments'
// rigs, the scenario loader, powermon, the trace replay tool and each shard
// of a federation build through it.
package fleet

import (
	"fmt"

	"repro/internal/breaker"
	"repro/internal/capping"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/whatif"
)

// Fleet is one row fleet: a stack and, over its rows, the controller (one
// domain per row), the breakers, the capper and the pinned service its
// caller asks for. The caller sets the configuration fields and calls Build,
// which fills the built ones. Each row's breaker and capping domain protect
// the budget its domain enforces (§3.2's operator margin, §4.3's capping
// kept underneath): on every effective-budget movement of row r's domain,
// they move to NewW / Control.Margin, and BudgetChanges counts the movement.
type Fleet struct {
	Stack stack.Config
	// RowBudgetW is what each row's breaker and capping domain protect, and,
	// times Control.Margin, what its controller domain enforces.
	RowBudgetW float64
	// RowName is the fmt pattern (one %d) naming row r's controller domain,
	// its breaker's metrics and its what-if breaker.
	RowName string
	// The optional parts. Breaker is every row's breaker configuration, its
	// BudgetW replaced by RowBudgetW.
	Control *Control
	Breaker *breaker.Config
	Capping *Capping
	Service *Service
	// Registry and Journal, when set, instrument the monitor, the TSDB, the
	// scheduler, the service, the breakers and the controller.
	Registry *obs.Registry
	Journal  *obs.Journal

	// Built by Build; a part not asked for stays nil.
	Rig           *stack.Stack
	Controller    *core.Controller
	Breakers      []*breaker.Breaker // one per row
	Capper        *capping.Capper
	Svc           *service.Service // not started
	BudgetChanges int
}

// Control is one controller domain per row over rows [0, Rows), each
// with budget RowBudgetW × Margin (Margin in (0,1]). Et, shared by every
// domain, must hold no per-domain state (core.ConstantEt); nil gives each
// domain an online-trained one. Schedule, when set, gives row r's budget
// schedule.
type Control struct {
	Rows     int
	Margin   float64
	Kr       float64
	Et       core.EtEstimator
	Schedule func(r int) *core.BudgetSchedule
	Config   core.Config
}

// Capping caps rows [0, Rows), each at RowBudgetW.
type Capping struct {
	Rows   int
	Config capping.Config
}

// Service pins Instances instances at even stride over the servers of
// rows [0, Rows), each reserving Containers containers on its host. Its
// seed is the stack's.
type Service struct {
	Rows       int
	Instances  int
	Containers int
	Config     service.Config
}

// Build assembles the fleet; the Rows of Control, Capping and Service are
// at most the cluster's. Nothing is started: start the base (and whatever
// must run between the monitor sweep and the protections), then call Start.
func (f *Fleet) Build() error {
	rig, err := stack.New(f.Stack)
	if err != nil {
		return err
	}
	f.Rig = rig
	rig.Mon.Instrument(f.Registry)
	rig.DB.Instrument(f.Registry)
	rig.Sched.Instrument(f.Registry)

	if s := f.Service; s != nil {
		servers := rig.Cluster.Servers[:s.Rows*len(rig.Cluster.Row(0))]
		if s.Instances < 1 || s.Instances > len(servers) {
			return fmt.Errorf("fleet: %d service instances on %d servers", s.Instances, len(servers))
		}
		hosts := make([]*cluster.Server, s.Instances)
		for i := range hosts {
			hosts[i] = servers[i*(len(servers)/s.Instances)]
			if err := rig.Sched.Reserve(hosts[i].ID, s.Containers, float64(s.Containers)); err != nil {
				return err
			}
		}
		if f.Svc, err = service.New(rig.Eng, f.Stack.Seed, s.Config, hosts); err != nil {
			return err
		}
		f.Svc.Instrument(f.Registry)
	}
	if c := f.Capping; c != nil {
		budgets := make([]float64, c.Rows)
		for r := range budgets {
			budgets[r] = f.RowBudgetW
		}
		if f.Capper, err = capping.New(rig.Eng, c.Config, capping.RowDomains(rig.Cluster, budgets)); err != nil {
			return err
		}
	}
	if c := f.Control; c != nil {
		domains := make([]core.Domain, c.Rows)
		for r := range domains {
			domains[r] = core.Domain{Name: fmt.Sprintf(f.RowName, r), Servers: rig.Cluster.RowIDs(r),
				BudgetW: f.RowBudgetW * c.Margin, Kr: c.Kr, Et: c.Et}
			if c.Schedule != nil {
				domains[r].Schedule = c.Schedule(r)
			}
		}
		if f.Controller, err = core.New(rig.Eng, rig.Mon, rig.Sched, c.Config, domains); err != nil {
			return err
		}
		f.Controller.Instrument(f.Registry, f.Journal)
		f.Controller.OnBudgetChange(f.follow)
	}
	if f.Breaker != nil {
		bcfg := *f.Breaker
		bcfg.BudgetW = f.RowBudgetW
		f.Breakers = make([]*breaker.Breaker, rig.Cluster.Rows())
		for r := range f.Breakers {
			if f.Breakers[r], err = breaker.New(rig.Eng, bcfg, rig.Cluster.Row(r)); err != nil {
				return err
			}
			f.Breakers[r].Instrument(f.Registry, fmt.Sprintf(f.RowName, r))
		}
	}
	return nil
}

// follow moves the protections of the row whose effective budget moved.
// NewW is controller-validated and the margin positive, so neither SetBudget
// can fail.
func (f *Fleet) follow(bc core.BudgetChange) {
	f.BudgetChanges++
	w := bc.NewW / f.Control.Margin
	if f.Breakers != nil {
		if err := f.Breakers[bc.Domain].SetBudget(w); err != nil {
			panic(err)
		}
	}
	if f.Capper != nil && bc.Domain < f.Capping.Rows {
		if err := f.Capper.SetBudget(bc.Domain, w); err != nil {
			panic(err)
		}
	}
}

// Start starts the breakers, then the capper, then the controller. Start
// the base first, so each minute's samples precede their consumers.
func (f *Fleet) Start() {
	for _, b := range f.Breakers {
		b.Start()
	}
	if f.Capper != nil {
		f.Capper.Start()
	}
	if f.Controller != nil {
		f.Controller.Start()
	}
}

// Instance is the built fleet as a what-if instance that runs to end: its
// stack, journal and controller, and its breakers named like their rows.
func (f *Fleet) Instance(end sim.Time, tag string) *whatif.Instance {
	breakers := make([]whatif.NamedBreaker, len(f.Breakers))
	for r, b := range f.Breakers {
		breakers[r] = whatif.NamedBreaker{Name: fmt.Sprintf(f.RowName, r), B: b}
	}
	return &whatif.Instance{
		Stack: f.Rig, Journal: f.Journal, Ctl: f.Controller,
		Breakers: breakers, End: end, ConfigTag: tag,
	}
}

// RunJournal is a journal that retains every event of a run of rows
// controlled rows to end, so a what-if diff never loses events to ring
// eviction: two events per row per tick, with two rows and four ticks to
// spare.
func RunJournal(rows int, end sim.Time) *obs.Journal {
	minutes := int(end / sim.Time(sim.Minute))
	return obs.NewJournal((rows + 2) * (minutes + 4) * 2)
}
