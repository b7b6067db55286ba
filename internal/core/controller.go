package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// PowerReader is everything the controller reads: the latest monitor samples
// for its domains' servers. The production implementation is
// monitor.Monitor; the controller itself never touches the cluster or the
// scheduler state, matching the paper's architecture (Fig 3).
//
//   - PowerSnapshot is the latest per-server sample slice, indexed by
//     ServerID, valid until the next sweep. The caller treats it as
//     read-only; the reader mutates it only between control ticks (monitor
//     sweeps and controller steps are serialized on the simulation event
//     loop). A missing (out of range), NaN or negative sample ranks least
//     preferred, and a snapshot that is not ok ranks every server so.
//   - GroupPower is the total power of an arbitrary server set.
//   - RangePower(lo, hi) must return exactly what GroupPower over the
//     ascending ID slice [lo..hi] would, bit for bit, letting the reader
//     serve aligned ranges from maintained aggregates in O(1). Every
//     production domain is a row, a contiguous ID range.
//   - GroupSampleTime is when the group's latest sample was taken, so the
//     controller can tell a fresh sample from a snapshot left stale by a
//     monitor outage. A reader that cannot tell answers not ok, and its
//     samples count as fresh.
type PowerReader interface {
	PowerSnapshot() (vals []float64, ok bool)
	GroupPower(ids []cluster.ServerID) (float64, bool)
	RangePower(lo, hi cluster.ServerID) (float64, bool)
	GroupSampleTime(ids []cluster.ServerID) (sim.Time, bool)
}

// FreezeAPI is the controller's entire interface to the job scheduler — the
// paper's two operations. It is structurally identical to scheduler.FreezeAPI
// but re-declared here so core depends only on its own contract.
type FreezeAPI interface {
	Freeze(id cluster.ServerID) error
	Unfreeze(id cluster.ServerID) error
}

// Domain is one independently controlled power domain: a row in production,
// or a virtual server group in the controlled experiments of §4.1.2.
type Domain struct {
	Name    string
	Servers []cluster.ServerID
	// BudgetW is PM, the enforced power budget in watts. The operator may
	// set it below the physical PDU limit for an extra safety margin (§3.2).
	BudgetW float64
	// Kr is the gradient of the linear control-effect model f(u) = Kr·u,
	// normalized to the budget, per control interval. Fit it with FitKr
	// from controlled-experiment data (stack.DefaultKr is the Fig 5 value).
	// Required: New rejects a zero, negative or non-finite Kr.
	Kr float64
	// Et predicts the next interval's demand increase. Nil selects a fresh
	// HourlyEt that the controller trains online from its own observations.
	Et EtEstimator
	// Schedule, when non-nil, makes the budget time-varying: PM(t) follows
	// the schedule's piecewise-constant steps (BudgetW before the first
	// step), with optional per-tick ramp-rate limiting. See budget.go.
	Schedule *BudgetSchedule
}

// interval is the period between control actions: one minute, the
// monitor's sampling period (§3).
const interval = sim.Minute

// The online estimators' fixed settings: the Et a domain assumes before its
// estimator has etMinSamples observations of the hour to go on.
const (
	etDefault    = 0.05
	etMinSamples = 30
)

// Config holds controller-wide parameters. A field exists only where two
// callers set different values; every other setting is a constant.
type Config struct {
	// RStable is the stability ratio (§3.5): a frozen server is only
	// swapped for another when its power has dropped below RStable times
	// the power of the coldest top-power server. The paper uses 0.8.
	RStable float64
	// MaxFreezeRatio caps the fraction of a domain's servers frozen at
	// once; the paper's deployment limits it to 0.5 for operational
	// reasons, at the cost of a rare violation under extreme surges.
	MaxFreezeRatio float64
	// EtPercentile configures the online HourlyEt estimators created for
	// domains with Et == nil.
	EtPercentile float64
	// Horizon is the receding-horizon depth N. The default 1 is the
	// paper's simplified problem (SPCP, Eq. 13); larger values solve the
	// general PCP (Eqs. 3–6) over N future intervals using the Et
	// estimator's per-hour forecasts, which lets the controller pre-freeze
	// ahead of a predicted surge larger than one interval can absorb.
	Horizon int
	// Selection picks which servers to freeze. The paper freezes the
	// highest-power servers (SelectHottest); the alternatives exist for
	// ablation studies quantifying that choice.
	Selection SelectionPolicy
	// SelectionSeed seeds SelectRandom's deterministic stream.
	SelectionSeed uint64
	// Resilience tunes degraded operation under substrate failures (stale
	// samples, corrupt readings, scheduler API errors);
	// Resilience.Disabled restores the naive controller.
	Resilience ResilienceConfig
	// EtWindow bounds each online HourlyEt hour bin to its most recent
	// EtWindow observations (0 = unbounded, the paper's behavior). A
	// one-minute interval adds 60 observations per bin per simulated day;
	// the window caps month-long-simulation memory and keeps steady-state
	// ticks allocation-free once every bin is full.
	EtWindow int
	// EtMode selects the online estimator family built for domains with
	// Et == nil (and swapped in wholesale by a PolicyPatch.EtMode): the
	// paper's static hourly percentile (EtStatic, the default), an EWMA
	// mean-plus-band forecast, or a per-hour seasonal-naive forecast. See
	// forecast.go. EtAlpha and EtBand tune the EWMA; zero selects the
	// deployment defaults (0.25 and 3).
	EtMode  EtMode
	EtAlpha float64
	EtBand  float64
	// Unfreeze selects the release path: straight down to the solver's
	// target (UnfreezeAll, the paper's behavior and the default), or gated
	// on spare power headroom with a bounded per-tick drain
	// (UnfreezeHeadroom). HeadroomTrigger is the minimum spare headroom
	// (1 − Et) − P before any release; HeadroomStepFrac bounds one tick's
	// release to that fraction of the domain. Zero selects the defaults
	// (0.05 and 0.10).
	Unfreeze         UnfreezeMode
	HeadroomTrigger  float64
	HeadroomStepFrac float64
}

// SelectionPolicy enumerates freeze-candidate orderings.
type SelectionPolicy int

const (
	// SelectHottest freezes the highest-power servers first (the paper's
	// choice: their jobs finish soonest relative to power saved, and cold
	// servers keep their spare capacity available).
	SelectHottest SelectionPolicy = iota
	// SelectColdest freezes the lowest-power servers first.
	SelectColdest
	// SelectRandom freezes uniformly random servers.
	SelectRandom
)

// String returns the policy name.
func (s SelectionPolicy) String() string {
	switch s {
	case SelectHottest:
		return "hottest"
	case SelectColdest:
		return "coldest"
	case SelectRandom:
		return "random"
	default:
		return fmt.Sprintf("SelectionPolicy(%d)", int(s))
	}
}

// DefaultConfig returns the paper's deployment parameters.
func DefaultConfig() Config {
	return Config{
		RStable:        0.8,
		MaxFreezeRatio: 0.5,
		EtPercentile:   99.5,
		Resilience:     ResilienceConfig{FailSafeAfter: 5, EtInflation: 2},
	}
}

// Validate reports configuration errors, naming the offending field; the
// policy axes are judged by their policyAxes rows. NaN propagates through
// every comparison as false, so each numeric field is checked for it
// explicitly — a NaN parameter must be rejected here, not silently disable
// the control law.
func (c Config) Validate() error {
	if c.EtWindow < 0 {
		return fmt.Errorf("core: negative EtWindow %d", c.EtWindow)
	}
	if err := c.settlePolicy(); err != nil {
		return err
	}
	return c.Resilience.validate()
}

// DomainStats aggregates one domain's control activity.
type DomainStats struct {
	Ticks int64
	// Violations counts monitor samples with power strictly above budget.
	Violations int64
	// ControlledTicks counts ticks with a non-zero freeze target.
	ControlledTicks int64
	FreezeOps       int64
	UnfreezeOps     int64
	// APIErrors counts failed freeze/unfreeze calls (the controller keeps
	// going; its set tracking only commits on success).
	APIErrors int64
	// USum accumulates the realized freezing ratio per tick; UMax is its
	// maximum. UMean() = USum / Ticks.
	USum float64
	UMax float64
	// PSum/PMax accumulate the normalized observed power.
	PSum float64
	PMax float64
	// SkippedNoData counts ticks where the monitor had no sample and the
	// controller had no last-known-good value to fall back on (startup
	// races; with resilience disabled, any missing sample).
	SkippedNoData int64

	// Resilience counters (all zero while Resilience.Disabled or the
	// substrate is healthy).

	// StaleTicks counts ticks served by a stale or missing sample while a
	// last-known-good value existed.
	StaleTicks int64
	// InvalidSamples counts readings rejected as corrupt (NaN, Inf,
	// negative, or above maxPlausibleP × budget).
	InvalidSamples int64
	// DegradedTicks counts ticks spent flying on last-known-good data,
	// including fail-safe ticks.
	DegradedTicks int64
	// FailSafeTicks counts ticks spent holding the frozen set in fail-safe
	// mode; FailSafeEntries counts transitions into it.
	FailSafeTicks   int64
	FailSafeEntries int64
	// Recoveries counts degraded→healthy transitions; DegradedDwell is the
	// total time spent degraded across completed recoveries, so
	// DegradedDwell/Recoveries is the mean time to recover (MTTR).
	Recoveries    int64
	DegradedDwell sim.Duration
	// Retries counts retried freeze/unfreeze calls after transient API
	// failures; RetrySuccesses counts the ones that went through.
	Retries        int64
	RetrySuccesses int64
}

// Add folds o into s, as for two controller instances that ran one domain
// in turn across a crash/restart: every count and sum adds, and UMax and
// PMax take the larger of the two.
func (s DomainStats) Add(o DomainStats) DomainStats {
	s.Ticks += o.Ticks
	s.Violations += o.Violations
	s.ControlledTicks += o.ControlledTicks
	s.FreezeOps += o.FreezeOps
	s.UnfreezeOps += o.UnfreezeOps
	s.APIErrors += o.APIErrors
	s.USum += o.USum
	s.UMax = max(s.UMax, o.UMax)
	s.PSum += o.PSum
	s.PMax = max(s.PMax, o.PMax)
	s.SkippedNoData += o.SkippedNoData
	s.StaleTicks += o.StaleTicks
	s.InvalidSamples += o.InvalidSamples
	s.DegradedTicks += o.DegradedTicks
	s.FailSafeTicks += o.FailSafeTicks
	s.FailSafeEntries += o.FailSafeEntries
	s.Recoveries += o.Recoveries
	s.DegradedDwell += o.DegradedDwell
	s.Retries += o.Retries
	s.RetrySuccesses += o.RetrySuccesses
	return s
}

// MTTR returns the mean time from entering degraded mode to the next fresh
// sample, over completed recoveries (zero when nothing recovered yet).
func (s DomainStats) MTTR() sim.Duration {
	if s.Recoveries == 0 {
		return 0
	}
	return s.DegradedDwell / sim.Duration(s.Recoveries)
}

// UMean returns the average freezing ratio over all ticks.
func (s DomainStats) UMean() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return s.USum / float64(s.Ticks)
}

// PMean returns the average normalized power over all ticks.
func (s DomainStats) PMean() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return s.PSum / float64(s.Ticks)
}

type domainState struct {
	d       Domain
	index   int
	kr      float64
	et      EtEstimator
	trainer TrainableEt // non-nil when the controller trains Et online
	hourly  *HourlyEt   // ds.et when it is the paper's hourly estimator
	frozen  frozenSet
	stats   DomainStats

	// contig marks a domain whose Servers are one ascending contiguous ID
	// range [loID, hiID] (every production row is); such domains read group
	// power through RangePower.
	contig     bool
	loID, hiID cluster.ServerID

	// Effective-budget state (budget.go). budget is the wattage the control
	// law normalizes against this tick; budgetPrev is what it was before the
	// tick moved it, for the change event; budgetTargetW is where any ramp is
	// heading. overrideW/haveOverride hold the runtime SetBudget target;
	// maxBudgetW caps it at maxBudgetFactor × the base budget.
	budget        float64
	budgetPrev    float64
	budgetTargetW float64
	overrideW     float64
	haveOverride  bool
	maxBudgetW    float64

	prevP    float64
	prevT    sim.Time
	havePrev bool

	// Resilience state: the last accepted (fresh, valid) sample, the count
	// of consecutive ticks without one, and the fail-safe latch. The two
	// flags share havePrev's word, which keeps domainState within 632
	// bytes: with the 8-byte header Go gives a pointerful object over 512
	// bytes, the 640-byte size class.
	haveGood      bool
	failSafe      bool
	lastGoodP     float64
	lastGoodAt    sim.Time
	dark          int
	degradedSince sim.Time
	consecAPIErr  int64
	pending       map[cluster.ServerID]*pendingOp

	// Last tick's decision inputs, kept for the metrics gauges and the
	// decision journal: observed normalized power, the Et threshold used,
	// and the freeze target after degraded-mode clamping.
	lastP      float64
	lastEt     float64
	lastTarget int
	// apiWall accumulates wall-clock time spent in scheduler API calls
	// during the current tick (instrumented controllers only).
	apiWall time.Duration

	// Per-tick scratch, sized to the domain on first use and reused, so the
	// steady-state control path allocates nothing: the power ranking, the one
	// candidate list reconcile sorts and walks, the release-everything ID
	// list, and the solver's forecast. boundary is the freeze boundary the
	// ranked selectors carry from tick to tick.
	rank      []serverPower
	cands     []serverPower
	idScratch []cluster.ServerID
	horizonEt []float64
	boundary  carriedBoundary
}

// scratch returns s emptied with room for n elements. It grows once, to the
// domain's size, which bounds every per-domain list.
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Controller is the Ampere control loop. It is deliberately oblivious to
// scheduling policy, job state and cluster topology: per tick it reads
// power, decides a freezing ratio, and reconciles the frozen set through
// FreezeAPI. Everything it needs to run can be rebuilt after a crash (see
// Resync), matching the paper's stateless-controller claim.
type Controller struct {
	eng     *sim.Engine
	reader  PowerReader
	api     FreezeAPI
	cfg     Config
	domains []*domainState
	handle  sim.Handle
	selRNG  *rand.Rand // only used by SelectRandom
	ins     *instrumentation
	// Strategy axes resolved from cfg by Config.policies (strategy.go):
	// freeze-candidate selection, the control-law solver, and the release
	// path. Swapped atomically with cfg by Reconfigure.
	sel    Selector
	solver Solver
	unf    UnfreezePolicy
	// onBudget is called, in order, on every effective-budget movement (see
	// OnBudgetChange in budget.go).
	onBudget []func(BudgetChange)
	// rampOverride, when haveRampOverride, bounds per-tick effective-budget
	// movement as a fraction of each domain's base budget, taking precedence
	// over any schedule's RampFrac. Set through Reconfigure (patch.go) — the
	// counterfactual replay path — never by the normal construction path.
	rampOverride     float64
	haveRampOverride bool

	// mu guards the domain state so the operator HTTP API (Status, Healthz)
	// can be served live while the event loop mutates counters. The control
	// path itself stays single-threaded; readers take the read lock.
	mu sync.RWMutex
}

// New validates inputs and builds a controller.
func New(eng *sim.Engine, reader PowerReader, api FreezeAPI, cfg Config, domains []Domain) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withPolicyDefaults()
	sel, solver, unf, err := cfg.policies()
	if err != nil {
		return nil, err
	}
	if reader == nil || api == nil {
		return nil, fmt.Errorf("core: nil reader or freeze API")
	}
	if len(domains) == 0 {
		return nil, fmt.Errorf("core: no domains to control")
	}
	ctl := &Controller{eng: eng, reader: reader, api: api, cfg: cfg,
		sel: sel, solver: solver, unf: unf}
	if cfg.Selection == SelectRandom {
		ctl.selRNG = sim.SubRNG(cfg.SelectionSeed, "controller-random-selection")
	}
	owner := make(map[cluster.ServerID]string)
	for i, d := range domains {
		if len(d.Servers) == 0 {
			return nil, fmt.Errorf("core: domain %d (%s) has no servers", i, d.Name)
		}
		if math.IsNaN(d.BudgetW) || math.IsInf(d.BudgetW, 0) || d.BudgetW <= 0 {
			return nil, fmt.Errorf("core: domain %d (%s) has BudgetW %v, need a finite positive wattage", i, d.Name, d.BudgetW)
		}
		if math.IsNaN(d.Kr) || math.IsInf(d.Kr, 0) || d.Kr <= 0 {
			return nil, fmt.Errorf("core: domain %d (%s) has Kr %v, need a finite positive gradient", i, d.Name, d.Kr)
		}
		if d.Schedule != nil {
			if err := d.Schedule.Validate(d.BudgetW); err != nil {
				return nil, fmt.Errorf("core: domain %d (%s): %w", i, d.Name, err)
			}
		}
		for _, id := range d.Servers {
			if prev, dup := owner[id]; dup {
				// Two domains freezing the same server would fight over it
				// and corrupt each other's frozen-set tracking.
				return nil, fmt.Errorf("core: server %d in both domain %q and %q", id, prev, d.Name)
			}
			owner[id] = d.Name
		}
		ds := &domainState{
			d:          d,
			index:      i,
			kr:         d.Kr,
			et:         d.Et,
			frozen:     newFrozenSet(d.Servers),
			pending:    make(map[cluster.ServerID]*pendingOp),
			budget:     d.BudgetW,
			budgetPrev: d.BudgetW,
			maxBudgetW: maxBudgetFactor * d.BudgetW,
		}
		ds.contig = true
		ds.loID = d.Servers[0]
		for j, id := range d.Servers {
			if id != ds.loID+cluster.ServerID(j) {
				ds.contig = false
				break
			}
		}
		ds.hiID = ds.loID + cluster.ServerID(len(d.Servers)-1)
		ds.budgetTargetW = ds.budget
		if ds.et == nil {
			tr, err := cfg.newTrainableEt()
			if err != nil {
				return nil, err
			}
			ds.et, ds.trainer = tr, tr
		} else if tr, ok := ds.et.(TrainableEt); ok {
			// A pre-trained trainable estimator keeps learning online.
			ds.trainer = tr
		}
		if h, ok := ds.et.(*HourlyEt); ok {
			ds.hourly = h
		}
		ctl.domains = append(ctl.domains, ds)
	}
	return ctl, nil
}

// Start schedules the periodic control loop beginning one interval from now
// (the first monitor sample must exist first; start the monitor at time
// zero and the controller immediately after).
func (c *Controller) Start() {
	if c.handle != (sim.Handle{}) {
		return
	}
	c.handle = c.eng.Every(c.eng.Now(), interval, "ampere-controller", c.Step)
}

// Stop halts the loop, leaving the current frozen set in place. Armed
// retries die with it: a stopped controller makes no further API call.
func (c *Controller) Stop() {
	c.eng.Cancel(c.handle)
	c.handle = sim.Handle{}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ds := range c.domains {
		ds.cancelPending(false)
	}
}

// Stats returns a copy of domain i's counters.
func (c *Controller) Stats(i int) DomainStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.domains[i].stats
}

// FrozenCount returns the number of servers domain i currently freezes.
func (c *Controller) FrozenCount(i int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.domains[i].frozen.len()
}

// FreezeRatio returns domain i's current realized freezing ratio.
func (c *Controller) FreezeRatio(i int) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds := c.domains[i]
	return float64(ds.frozen.len()) / float64(len(ds.d.Servers))
}

// HourlyEt returns domain i's online Et estimator, or nil when the domain
// was configured with an external estimator.
func (c *Controller) HourlyEt(i int) *HourlyEt { return c.domains[i].hourly }

// Resync rebuilds the controller's frozen-set bookkeeping from ground truth
// (e.g. after replacing a crashed controller instance: the scheduler knows
// which servers are frozen). isFrozen is consulted for every domain member.
func (c *Controller) Resync(isFrozen func(id cluster.ServerID) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ds := range c.domains {
		ds.frozen.clear()
		ds.cancelPending(false)
		for _, id := range ds.d.Servers {
			if isFrozen(id) {
				ds.frozen.add(id)
			}
		}
	}
}

// Step executes one control tick for every domain. It is driven by Start's
// periodic event and exported for tests and manual stepping. Domains tick in
// domain-index order, each in one pass, so the API call stream and the
// journal are deterministic.
func (c *Controller) Step(now sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var start time.Time
	if c.ins != nil && c.ins.tickDur != nil {
		start = time.Now()
	}
	journaled := c.ins != nil && c.ins.journal != nil
	for _, ds := range c.domains {
		if journaled {
			c.journaledTick(ds, now)
		} else {
			c.tick(ds, now)
		}
	}
	if c.ins != nil && c.ins.tickDur != nil {
		c.ins.tickDur.Observe(time.Since(start).Seconds())
	}
}

// tick is Algorithm 1 for one domain: move the budget, read and classify the
// power sample, run the control law to a freeze target, and drive the frozen
// set there through the scheduler API. A budget movement is announced between
// deciding and acting — its event carries the health this tick arrived at and
// the frozen count it started with.
func (c *Controller) tick(ds *domainState, now sim.Time) {
	c.moveBudget(ds, now)
	target, degraded, ok := c.decide(ds, now)
	c.announceBudget(ds, now)
	if !ok {
		return
	}
	if target == 0 {
		// No imminent violation: release everything.
		c.unfreezeAll(ds)
	} else {
		c.sel.reconcile(c, ds, target, degraded)
	}
	c.recordU(ds)
}

// decide classifies this tick's reading — fresh, stale, or corrupt — and
// dispatches to the control law or the degraded fallback, returning the
// freeze target to act on. ok is false when there is nothing to act on: no
// sample and nothing to fall back on, or fail-safe hold. With resilience
// disabled it is exactly the original Algorithm 1 front end: trust anything
// the reader returns.
func (c *Controller) decide(ds *domainState, now sim.Time) (target int, degraded, ok bool) {
	watts, at, have := c.readGroup(ds, now)
	p := watts / ds.budget

	res := c.cfg.Resilience
	if res.Disabled {
		if !have {
			ds.stats.SkippedNoData++
			return 0, false, false
		}
		return c.controlLaw(ds, now, p, p, false), false, true
	}

	valid := have && !math.IsNaN(p) && !math.IsInf(p, 0) && p >= 0 && p <= maxPlausibleP
	if have && !valid {
		ds.stats.InvalidSamples++
	}
	if valid && now.Sub(at) < staleAfter {
		// Fresh, credible sample: recover if we were dark, then run the
		// normal control law.
		if ds.dark > 0 {
			ds.stats.Recoveries++
			ds.stats.DegradedDwell += now.Sub(ds.degradedSince)
			ds.dark = 0
			ds.failSafe = false
		}
		ds.lastGoodP, ds.lastGoodAt, ds.haveGood = p, at, true
		return c.controlLaw(ds, now, p, p, false), false, true
	}

	// Dark interval: nothing trustworthy to read this tick.
	if !ds.haveGood {
		ds.stats.SkippedNoData++
		return 0, false, false
	}
	if ds.dark == 0 {
		ds.degradedSince = now
	}
	ds.dark++
	ds.stats.StaleTicks++
	ds.stats.DegradedTicks++
	if ds.dark >= res.FailSafeAfter {
		// Fail-safe: too long without data to trust any forecast. Hold the
		// frozen set exactly as it is — freezing more would thrash on
		// fiction, unfreezing would release capacity blindly.
		if !ds.failSafe {
			ds.failSafe = true
			ds.stats.FailSafeEntries++
			ds.cancelPending(true)
		}
		ds.stats.FailSafeTicks++
		ds.stats.Ticks++
		ds.stats.PSum += ds.lastGoodP
		ds.lastP, ds.lastTarget = ds.lastGoodP, ds.frozen.len()
		c.recordU(ds)
		return 0, false, false
	}
	// Degraded: fly on the last-known-good power, advanced by a
	// conservatively inflated Et per dark interval — demand is assumed to
	// keep rising at the inflated rate while we cannot see it.
	pEff := ds.lastGoodP + float64(ds.dark)*res.EtInflation*ds.et.Estimate(now)
	return c.controlLaw(ds, now, ds.lastGoodP, pEff, true), true, true
}

// controlLaw is the decision half of Algorithm 1 for a single domain: it
// returns the freeze target ⌊F(Pk/PM)·nk⌋. pStat is the power recorded in the
// statistics; pCtl is the (possibly forecast) power fed to the control law.
// In degraded mode the controller never shrinks the frozen set: a release
// decision needs fresh data.
func (c *Controller) controlLaw(ds *domainState, now sim.Time, pStat, pCtl float64, degraded bool) int {
	ds.stats.Ticks++
	ds.stats.PSum += pStat
	if !degraded {
		if pStat > ds.stats.PMax {
			ds.stats.PMax = pStat
		}
		if pStat > 1.0 {
			ds.stats.Violations++
		}
	}

	// Feed the online Et estimator with the increase observed over the
	// just-finished interval, attributed to the hour that interval started.
	// Degraded ticks feed nothing: a synthetic forecast is not a
	// measurement, and the first post-recovery delta spans the whole gap,
	// so training resumes one tick after recovery.
	if degraded {
		ds.havePrev = false
	} else {
		if ds.trainer != nil && ds.havePrev {
			ds.trainer.Add(ds.prevT, pStat-ds.prevP)
		}
		ds.prevP, ds.prevT, ds.havePrev = pStat, now, true
	}

	p := pCtl
	et := ds.et.Estimate(now)
	if degraded {
		et *= c.cfg.Resilience.EtInflation
	}
	ds.lastP, ds.lastEt = pStat, et
	n := len(ds.d.Servers)

	// F(Pk/PM): the configured Solver strategy — the SPCP closed form
	// (Eq. 13) at horizon 1, zero exactly when P is below the
	// rthreshold = 1 − Et line of Fig 6, or the first control of the exact
	// horizon-N PCP solution, which is identical under the paper's side
	// conditions (Lemma 3.1) and stronger when a predicted surge exceeds
	// one interval's control authority. The forecast slice is filled to the
	// solver's depth from the Et estimator's per-interval estimates.
	depth := c.solver.Depth()
	if cap(ds.horizonEt) < depth {
		ds.horizonEt = make([]float64, depth)
	}
	e := ds.horizonEt[:depth]
	e[0] = et
	for k := 1; k < depth; k++ {
		e[k] = ds.et.Estimate(now.Add(sim.Duration(k) * interval))
	}
	u := c.solver.Solve(p, e, ds.kr, c.cfg.MaxFreezeRatio)
	if math.IsNaN(u) {
		// A corrupt reading fed straight through (resilience disabled)
		// yields a NaN plan; int(NaN) is platform-defined and would slice
		// out of bounds below. No comparison against NaN holds, so the
		// faithful "trust the garbage" outcome is taking no action.
		u = 0
	}
	nfreeze := int(u * float64(n)) // ⌊F(Pk/PM)·nk⌋
	if degraded && nfreeze < ds.frozen.len() {
		// Never release capacity on a forecast: the frozen set can only
		// grow until a fresh sample proves the demand receded.
		nfreeze = ds.frozen.len()
	}
	if nfreeze < ds.frozen.len() {
		// The release path is policy-shaped: the UnfreezePolicy may hold
		// capacity frozen or slow the drain, but never cuts below the
		// solver's target (strategy.go). UnfreezeAll is the identity.
		nfreeze = c.unf.target(p, et, ds.frozen.len(), n, nfreeze)
	}
	ds.lastTarget = nfreeze
	if nfreeze > 0 {
		ds.stats.ControlledTicks++
	}
	return nfreeze
}

type serverPower struct {
	id    cluster.ServerID
	power float64
}

// refreshRank refills the domain's ranking scratch with this tick's
// per-server samples, for the Selector strategy (strategy.go) to order.
// missing is the power a server without a usable sample ranks with: the
// least-preferred end of the selector's order.
func (c *Controller) refreshRank(ds *domainState, missing float64) {
	rank := scratch(ds.rank, len(ds.d.Servers))
	vals, ok := c.reader.PowerSnapshot()
	if !ok {
		vals = nil // every server ranks last
	}
	for _, id := range ds.d.Servers {
		// A missing (out of range), NaN or negative sample ranks least
		// preferred, written as a single v >= 0 comparison, which NaN and
		// negatives both fail. NaN must not reach the comparators: it breaks
		// ordering transitivity.
		p := missing
		if int(id) >= 0 && int(id) < len(vals) {
			if v := vals[id]; v >= 0 {
				p = v
			}
		}
		rank = append(rank, serverPower{id: id, power: p})
	}
	ds.rank = rank
}

func (c *Controller) freeze(ds *domainState, id cluster.ServerID) {
	// The tick path always attempts directly; a scheduled retry for this
	// server is superseded (whatever it would have done, this decision is
	// fresher).
	if op := ds.pending[id]; op != nil {
		op.cancelled = true
		delete(ds.pending, id)
	}
	if err := c.callFreezeAPI(ds, id, false); err != nil {
		ds.stats.APIErrors++
		ds.consecAPIErr++
		c.scheduleRetry(ds, id, false, 0)
		return
	}
	ds.consecAPIErr = 0
	ds.frozen.add(id)
	ds.stats.FreezeOps++
}

func (c *Controller) unfreeze(ds *domainState, id cluster.ServerID) {
	if op := ds.pending[id]; op != nil {
		op.cancelled = true
		delete(ds.pending, id)
	}
	if err := c.callFreezeAPI(ds, id, true); err != nil {
		ds.stats.APIErrors++
		ds.consecAPIErr++
		c.scheduleRetry(ds, id, true, 0)
		return
	}
	ds.consecAPIErr = 0
	ds.frozen.remove(id)
	ds.stats.UnfreezeOps++
}

func (c *Controller) unfreezeAll(ds *domainState) {
	if ds.frozen.len() == 0 {
		return
	}
	// Reuse the domain's ID scratch: release-everything ticks recur on every
	// demand trough, and rebuilding the slice each time was steady garbage.
	// The bitmap iterates in ascending ID order, matching the sorted release
	// order of the map-era code.
	ids := ds.frozen.appendIDs(scratch(ds.idScratch, len(ds.d.Servers)))
	ds.idScratch = ids
	for _, id := range ids {
		c.unfreeze(ds, id)
	}
}

func (c *Controller) recordU(ds *domainState) {
	u := float64(ds.frozen.len()) / float64(len(ds.d.Servers))
	ds.stats.USum += u
	if u > ds.stats.UMax {
		ds.stats.UMax = u
	}
}
