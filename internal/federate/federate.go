// Package federate scales the substrate past one data center: N fully
// isolated DCs — each a fleet.Fleet with a controller over every row —
// advance in lockstep epochs under a global coordinator that reallocates
// budget headroom between DCs through the controllers' validated SetBudget
// path.
//
// The sharding rule is the whole concurrency story: a DC is a shard, every
// mutable object belongs to exactly one shard, and the parallel phases
// (epoch advance, federated controller tick) fan whole shards across
// workers — a worker only ever touches the state of the
// shard it was handed. Coordinator logic (telemetry collection, headroom
// reallocation, command delivery) runs serially between the barriers in
// DC-index order. Output is therefore byte-identical at any worker count
// (the DESIGN.md §7 contract), without any cross-shard locking.
//
// WAN delay is modeled on both directions of the coordinator link: the
// coordinator reads each DC's telemetry DelayEpochs epochs late, and its
// SetBudget commands take effect DelayEpochs epochs after they are issued,
// at an epoch boundary of the receiving DC. See DESIGN.md §11.
package federate

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// DCSpec describes one data center shard.
type DCSpec struct {
	// Name labels the DC and salts its sub-seed; must be unique.
	Name string
	// Rows is the fleet size in rows of RowServers servers.
	Rows int
	// RowServers is the row width (default 400, multiple of 20).
	RowServers int
	// TargetFrac steers the DC's uncontrolled load to this fraction of rated
	// power; heterogeneous values make the reallocation meaningful.
	TargetFrac float64
	// PeakHour is the local diurnal peak (hour of virtual day) — the
	// time-zone offset of a geo-distributed family.
	PeakHour float64
	// DiurnalAmplitude overrides the workload's daily swing (0 keeps the
	// generator default).
	DiurnalAmplitude float64
	// ReservePerServer pins that many containers per server at build time:
	// long-running service load, reserved on the DC's scheduler.
	ReservePerServer int
}

// Config assembles a Federation.
type Config struct {
	Seed uint64
	DCs  []DCSpec
	// CadenceEpochs is the coordinator's reallocation period (default 15).
	CadenceEpochs int
	// DelayEpochs is the one-way WAN delay, in epochs, applied to telemetry
	// reads and to command delivery (default 2).
	DelayEpochs int
	// Workers caps the parallel phases' shard workers (<= 0 is GOMAXPROCS,
	// 1 is serial). Output is identical at any value.
	Workers int
	// Retention bounds each DC's TSDB series length (0 = unlimited).
	Retention int
}

const (
	// epoch is the lockstep advance quantum: one minute, matching the
	// controllers' interval, so every epoch barrier is a federated tick.
	epoch = sim.Minute
	// margin is the demand headroom the coordinator grants above observed
	// power when computing a DC's wanted budget.
	margin float64 = 0.08
	// maxShiftFrac bounds one reallocation's move to that fraction of a DC's
	// base budget — the coordinator is a slow outer loop, not a second fast
	// controller.
	maxShiftFrac float64 = 0.10
	// budgetFrac is a DC's base budget as a fraction of its rated power, the
	// experiments' 1/1.25 over-provisioning.
	budgetFrac float64 = 0.8
	// floorFrac and capFrac bound a DC's allocation to [floorFrac,
	// capFrac]×base; capFrac stays below the SetBudget ceiling of 2×base.
	floorFrac float64 = 0.6
	capFrac   float64 = 1.5
)

func (cfg Config) withDefaults() Config {
	if cfg.CadenceEpochs == 0 {
		cfg.CadenceEpochs = 15
	}
	if cfg.DelayEpochs == 0 {
		cfg.DelayEpochs = 2
	}
	// The specs are the caller's: fill a copy.
	cfg.DCs = slices.Clone(cfg.DCs)
	for i := range cfg.DCs {
		d := &cfg.DCs[i]
		if d.RowServers == 0 {
			d.RowServers = 400
		}
		if d.TargetFrac == 0 {
			d.TargetFrac = 0.70
		}
	}
	return cfg
}

// Validate reports configuration errors, naming the offending field.
func (cfg Config) Validate() error {
	switch {
	case len(cfg.DCs) == 0:
		return fmt.Errorf("federate: need at least one DC")
	case cfg.CadenceEpochs < 1:
		return fmt.Errorf("federate: CadenceEpochs %d must be ≥1", cfg.CadenceEpochs)
	case cfg.DelayEpochs < 0:
		return fmt.Errorf("federate: negative DelayEpochs %d", cfg.DelayEpochs)
	}
	seen := make(map[string]bool, len(cfg.DCs))
	for i, d := range cfg.DCs {
		switch {
		case d.Name == "":
			return fmt.Errorf("federate: DC %d has no name", i)
		case seen[d.Name]:
			return fmt.Errorf("federate: duplicate DC name %q", d.Name)
		case d.Rows < 1:
			return fmt.Errorf("federate: DC %q rows %d must be ≥1", d.Name, d.Rows)
		case d.RowServers <= 0 || d.RowServers%20 != 0:
			return fmt.Errorf("federate: DC %q row servers %d must be a positive multiple of 20", d.Name, d.RowServers)
		case math.IsNaN(d.TargetFrac) || d.TargetFrac <= 0 || d.TargetFrac > 1:
			return fmt.Errorf("federate: DC %q target frac %v outside (0,1]", d.Name, d.TargetFrac)
		case !(d.PeakHour >= 0 && d.PeakHour <= 24):
			return fmt.Errorf("federate: DC %q peak hour %v outside [0,24]", d.Name, d.PeakHour)
		case !(d.DiurnalAmplitude >= 0 && d.DiurnalAmplitude <= 1):
			return fmt.Errorf("federate: DC %q diurnal amplitude %v outside [0,1]", d.Name, d.DiurnalAmplitude)
		case d.ReservePerServer < 0:
			return fmt.Errorf("federate: DC %q negative ReservePerServer %d", d.Name, d.ReservePerServer)
		}
		if capacity := stack.RowSpec(d.Rows, d.RowServers).Containers; d.ReservePerServer > capacity {
			return fmt.Errorf("federate: DC %q pins %d containers per server, capacity %d",
				d.Name, d.ReservePerServer, capacity)
		}
		seen[d.Name] = true
	}
	return nil
}

// DC is one assembled shard: a stack plus its controller. Everything
// reachable from a DC is owned by that shard; only the worker currently
// holding the shard (or the coordinator, between barriers) may touch it.
type DC struct {
	*stack.Stack
	Name string
	Spec cluster.Spec
	Ctl  *core.Controller

	runErr error
}

// Telemetry is one DC's state at an epoch boundary, as sampled by the
// coordinator (excluding wall clock, so telemetry is fully deterministic).
type Telemetry struct {
	PowerW    float64 // DC total power at the epoch's monitor sample
	BudgetW   float64 // allocation in force at the DC during the epoch
	Frozen    int
	Queue     int
	Placed    int64
	Completed int64
}

// ShardError is the element type of Advance's first result, a list that is
// always empty: nothing but the shard's own engine and controller reaches its
// scheduler. Type and result stay because frozen bench/fed.go spells them
// (ROADMAP 1(c)).
type ShardError struct {
	DC  int
	Err error
}

// command is a WAN-delayed coordinator order: set dc's total budget at the
// start of epoch applyEpoch.
type command struct {
	applyEpoch int
	dc         int
	budgetW    float64
}

type phase uint8

const (
	phaseAdvance phase = iota
	phaseTick
)

// Federation is the assembled two-level system.
type Federation struct {
	cfg  Config
	DCs  []*DC
	loop *runner.Loop

	epoch int // completed epochs
	until sim.Time
	phase phase

	base   []float64 // per-DC base budgets (the pool)
	alloc  []float64 // allocation currently in force at each DC
	target []float64 // last commanded allocation (in flight or in force)
	cmds   []command

	telem [][]Telemetry

	tickN   int
	tickSum time.Duration
	tickMax time.Duration
}

// New builds every shard (each from a labeled sub-seed of cfg.Seed, so DC
// identity — not list order — determines its streams), starts the per-DC
// monitors and generators, and reserves any pinned service load.
func New(cfg Config) (*Federation, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Federation{
		cfg:    cfg,
		base:   make([]float64, len(cfg.DCs)),
		alloc:  make([]float64, len(cfg.DCs)),
		target: make([]float64, len(cfg.DCs)),
		telem:  make([][]Telemetry, len(cfg.DCs)),
	}
	for i, d := range cfg.DCs {
		dcSeed := sim.SubSeed(cfg.Seed, "dc/"+d.Name)
		spec := stack.RowSpec(d.Rows, d.RowServers)
		product := workload.DefaultProduct(d.Name, stack.JobsPerMinute(spec, d.TargetFrac, spec.TotalServers()))
		if d.PeakHour > 0 {
			product.PeakHour = d.PeakHour
		}
		if d.DiurnalAmplitude > 0 {
			product.DiurnalAmplitude = d.DiurnalAmplitude
		}
		baseDC := budgetFrac * spec.RowRatedPowerW() * float64(d.Rows)
		ccfg := core.DefaultConfig()
		ccfg.EtWindow = 60
		fl := &fleet.Fleet{
			Stack: stack.Config{Seed: dcSeed, Cluster: spec,
				Products: []workload.Product{product}, Retention: cfg.Retention},
			RowBudgetW: baseDC / float64(d.Rows),
			RowName:    "row/%d", // monitor.SeriesRow
			Control:    &fleet.Control{Rows: d.Rows, Margin: 1, Kr: stack.DefaultKr, Config: ccfg},
		}
		if err := fl.Build(); err != nil {
			return nil, fmt.Errorf("federate: DC %q: %w", d.Name, err)
		}
		st := fl.Rig
		// The monitor and generator live on the DC's engine; the controller
		// is never started but stepped by the coordinator at each epoch
		// barrier (the federated tick), which reproduces the
		// monitor-before-controller ordering a same-engine Start would give.
		st.StartBase()

		if d.ReservePerServer > 0 {
			for _, sv := range st.Cluster.Servers {
				if err := st.Sched.Reserve(sv.ID, d.ReservePerServer, float64(d.ReservePerServer)); err != nil {
					return nil, fmt.Errorf("federate: DC %q pin: %w", d.Name, err)
				}
			}
		}

		f.DCs = append(f.DCs, &DC{Stack: st, Name: d.Name, Spec: spec, Ctl: fl.Controller})
		f.base[i], f.alloc[i], f.target[i] = baseDC, baseDC, baseDC
	}
	f.loop = runner.NewLoop(f.runDC)
	return f, nil
}

func (f *Federation) workers() int {
	if f.cfg.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return f.cfg.Workers
}

// runDC is the shard worker body for every parallel phase; the phase field
// is set serially before each barrier.
func (f *Federation) runDC(i int) {
	dc := f.DCs[i]
	switch f.phase {
	case phaseAdvance:
		dc.runErr = dc.Eng.RunUntil(f.until)
	case phaseTick:
		dc.Ctl.Step(f.until)
	}
}

// Advance runs the federation forward by the given number of epochs, each in
// three phases: deliver due coordinator commands (serial, DC order) → advance
// every DC engine one epoch, then step every DC controller (each parallel over
// shards; the second is the federated tick, the timed quantity) → sample
// telemetry (serial, DC order) and reallocate at cadence boundaries. The
// ShardError list is always empty (see the type); engine and command failures
// abort the epoch loop through the error.
func (f *Federation) Advance(epochs int) ([]ShardError, error) {
	for k := 0; k < epochs; k++ {
		if err := f.applyDueCommands(); err != nil {
			return nil, err
		}
		f.until = sim.Time(f.epoch+1) * sim.Time(epoch)

		f.phase = phaseAdvance
		f.loop.Run(f.workers(), len(f.DCs))
		for _, dc := range f.DCs {
			if dc.runErr != nil {
				return nil, fmt.Errorf("federate: DC %q: %w", dc.Name, dc.runErr)
			}
		}

		start := time.Now()
		f.phase = phaseTick
		f.loop.Run(f.workers(), len(f.DCs))
		tick := time.Since(start)
		f.tickN++
		f.tickSum += tick
		if tick > f.tickMax {
			f.tickMax = tick
		}

		for i, dc := range f.DCs {
			f.telem[i] = append(f.telem[i], f.observe(i, dc))
		}
		f.epoch++
		if f.epoch%f.cfg.CadenceEpochs == 0 {
			f.reallocate()
		}
	}
	return nil, nil
}

func (f *Federation) observe(i int, dc *DC) Telemetry {
	power := 0.0
	for r := 0; r < dc.Spec.Rows; r++ {
		if p, ok := dc.Mon.RowPower(r); ok {
			power += p
		}
	}
	frozen := 0
	for r := 0; r < dc.Spec.Rows; r++ {
		frozen += dc.Ctl.FrozenCount(r)
	}
	st := dc.Sched.Stats()
	return Telemetry{
		PowerW: power, BudgetW: f.alloc[i], Frozen: frozen,
		Queue: dc.Sched.QueueLen(), Placed: st.Placed, Completed: st.Completed,
	}
}

// applyDueCommands delivers every command due at the current epoch boundary,
// in issue order (which is DC order within one reallocation), through the
// controllers' validated SetBudget path — one per row domain.
func (f *Federation) applyDueCommands() error {
	kept := f.cmds[:0]
	for _, cmd := range f.cmds {
		if cmd.applyEpoch > f.epoch {
			kept = append(kept, cmd)
			continue
		}
		dc := f.DCs[cmd.dc]
		perRow := cmd.budgetW / float64(dc.Spec.Rows)
		for r := 0; r < dc.Spec.Rows; r++ {
			if err := dc.Ctl.SetBudget(r, perRow); err != nil {
				return fmt.Errorf("federate: DC %q row %d: %w", dc.Name, r, err)
			}
		}
		f.alloc[cmd.dc] = cmd.budgetW
	}
	f.cmds = kept
	return nil
}

// reallocate is the coordinator's water-fill over the shared budget pool
// (Σ base). Each DC wants its WAN-delayed observed power plus margin,
// clamped to [floorFrac, capFrac]×base; leftovers are returned pro rata to
// base, deficits scale every DC's above-floor ask by a common ratio. The
// per-cadence move is clamped to maxShiftFrac×base and the result never
// exceeds the pool, so the coordinator conserves total provisioned power
// while chasing the diurnal peaks around the planet.
func (f *Federation) reallocate() {
	src := f.epoch - 1 - f.cfg.DelayEpochs // newest telemetry visible over the WAN
	if src < 0 {
		return
	}
	n := len(f.DCs)
	pool, sumFloor, sumWant := 0.0, 0.0, 0.0
	want := make([]float64, n)
	for d := 0; d < n; d++ {
		floor, cap := floorFrac*f.base[d], capFrac*f.base[d]
		w := f.telem[d][src].PowerW * (1 + margin)
		w = math.Min(math.Max(w, floor), cap)
		want[d] = w
		pool += f.base[d]
		sumFloor += floor
		sumWant += w
	}
	alloc := make([]float64, n)
	if sumWant <= pool {
		left := pool - sumWant
		for d := 0; d < n; d++ {
			add := left * f.base[d] / pool
			if max := capFrac*f.base[d] - want[d]; add > max {
				add = max
			}
			alloc[d] = want[d] + add
		}
	} else {
		ratio := (pool - sumFloor) / (sumWant - sumFloor)
		for d := 0; d < n; d++ {
			floor := floorFrac * f.base[d]
			alloc[d] = floor + ratio*(want[d]-floor)
		}
	}
	sum := 0.0
	for d := 0; d < n; d++ {
		if shift := maxShiftFrac * f.base[d]; math.Abs(alloc[d]-f.target[d]) > shift {
			if alloc[d] > f.target[d] {
				alloc[d] = f.target[d] + shift
			} else {
				alloc[d] = f.target[d] - shift
			}
		}
		sum += alloc[d]
	}
	if sum > pool {
		scale := pool / sum
		for d := 0; d < n; d++ {
			alloc[d] *= scale
		}
	}
	for d := 0; d < n; d++ {
		if math.Abs(alloc[d]-f.target[d]) < 1e-9*f.base[d] {
			continue
		}
		f.target[d] = alloc[d]
		f.cmds = append(f.cmds, command{applyEpoch: f.epoch + f.cfg.DelayEpochs, dc: d, budgetW: alloc[d]})
	}
}

// ShiftBudget issues an operator-initiated headroom transfer from one DC to
// another through the same WAN-delayed command path, clamped to the floor of
// the donor and the cap of the recipient. It returns the watts actually
// moved (possibly less than asked, zero when no headroom exists).
func (f *Federation) ShiftBudget(from, to int, watts float64) (float64, error) {
	if from < 0 || from >= len(f.DCs) || to < 0 || to >= len(f.DCs) || from == to {
		return 0, fmt.Errorf("federate: ShiftBudget DCs %d→%d out of range or equal", from, to)
	}
	if math.IsNaN(watts) || watts <= 0 {
		return 0, fmt.Errorf("federate: ShiftBudget of %v watts", watts)
	}
	give := math.Min(watts, f.target[from]-floorFrac*f.base[from])
	take := math.Min(give, capFrac*f.base[to]-f.target[to])
	if take <= 0 {
		return 0, nil
	}
	f.target[from] -= take
	f.target[to] += take
	at := f.epoch + f.cfg.DelayEpochs
	f.cmds = append(f.cmds,
		command{applyEpoch: at, dc: from, budgetW: f.target[from]},
		command{applyEpoch: at, dc: to, budgetW: f.target[to]})
	return take, nil
}

// Epochs returns the number of completed epochs.
func (f *Federation) Epochs() int { return f.epoch }

// BaseBudget returns DC i's base (provisioned) budget in watts.
func (f *Federation) BaseBudget(i int) float64 { return f.base[i] }

// Allocation returns DC i's budget currently in force.
func (f *Federation) Allocation(i int) float64 { return f.alloc[i] }

// Telemetry returns DC i's per-epoch coordinator samples.
func (f *Federation) Telemetry(i int) []Telemetry { return f.telem[i] }

// TickStats reports the federated controller tick's wall-clock profile:
// tick count, mean and max duration. Wall clock is progress data — report
// it to stderr, never into deterministic experiment output.
func (f *Federation) TickStats() (n int, mean, max time.Duration) {
	if f.tickN == 0 {
		return 0, 0, 0
	}
	return f.tickN, f.tickSum / time.Duration(f.tickN), f.tickMax
}

// ResetTickStats zeroes the tick profile. Call it after a warmup phase so
// TickStats reports the steady state: the very first tick pays one-time
// costs (growing every domain's ranking and candidate scratch) that would
// otherwise dominate max for the whole run.
func (f *Federation) ResetTickStats() {
	f.tickN, f.tickSum, f.tickMax = 0, 0, 0
}

// Servers returns the total server count across all DCs.
func (f *Federation) Servers() int {
	n := 0
	for _, dc := range f.DCs {
		n += dc.Spec.TotalServers()
	}
	return n
}

// Fingerprint renders every deterministic observable — per-DC telemetry
// series and final allocations — into one string. Two runs of the same
// configuration must produce identical fingerprints at any Workers setting;
// the byte-identity tests diff them.
func (f *Federation) Fingerprint() string {
	var b strings.Builder
	for i, dc := range f.DCs {
		fmt.Fprintf(&b, "dc=%s servers=%d base=%.6f alloc=%.6f target=%.6f\n",
			dc.Name, dc.Spec.TotalServers(), f.base[i], f.alloc[i], f.target[i])
		for e, t := range f.telem[i] {
			fmt.Fprintf(&b, "  e=%d p=%.6f b=%.6f fz=%d q=%d pl=%d co=%d\n",
				e, t.PowerW, t.BudgetW, t.Frozen, t.Queue, t.Placed, t.Completed)
		}
	}
	return b.String()
}
