// Package chaos is a deterministic fault injector for the Ampere control
// plane. It wraps the controller's two dependency interfaces
// (core.PowerReader, core.FreezeAPI) and the monitor's TSDB write path
// (monitor.Store) with declarative fault plans: stale and corrupt power
// readings, whole-domain monitor blackouts, transient and persistent
// scheduler API failures with injected latency, TSDB write rejection, and
// scheduled controller crash/restarts.
//
// Determinism is the point. Every stochastic decision is a pure function of
// (plan seed, fault kind, simulated time, per-target salt) — not a drawn
// RNG stream — so two controllers with different call patterns (a naive one
// and a resilient one that retries) still experience the *identical* fault
// schedule. That is what makes regime comparisons under fault storms fair.
package chaos

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind names one class of injected fault.
type Kind string

// The supported fault kinds.
const (
	// ReadBlackout freezes the reader's view: during the window every read
	// returns the last pre-blackout value with its original (now stale)
	// timestamp, exactly what a crashed monitor leaves behind.
	ReadBlackout Kind = "read-blackout"
	// ReadNaN replaces each group reading and each server's sample with NaN
	// with probability Rate.
	ReadNaN Kind = "read-nan"
	// ReadOutlier multiplies each group reading and each server's sample by
	// Factor with probability Rate — a corrupt IPMI sample.
	ReadOutlier Kind = "read-outlier"
	// ReadLag reports sample timestamps Lag older than they are.
	ReadLag Kind = "read-lag"
	// APITransient fails each Freeze/Unfreeze call with probability Rate.
	APITransient Kind = "api-transient"
	// APIPersistent fails every Freeze/Unfreeze call in the window.
	APIPersistent Kind = "api-persistent"
	// APILatency delays each call by Latency; when a positive Timeout is set
	// and Latency >= Timeout, the call times out (fails without reaching the
	// scheduler).
	APILatency Kind = "api-latency"
	// StoreReject makes the TSDB reject each write with probability Rate
	// (Rate 0 means every write in the window).
	StoreReject Kind = "store-reject"
	// CtlCrash asks the harness to crash the controller at From and restart
	// it (Resync + Start) at To. The injector cannot kill the controller
	// itself; Plan.Crashes exposes these windows for the harness to execute.
	CtlCrash Kind = "ctl-crash"
	// BudgetDip curtails the power budget: at each minute boundary in the
	// window a dip of the fault's Depth begins with probability Rate and
	// lasts Dwell — a grid demand-response event the controller has not been
	// pre-warned about. The injector only computes the resulting multiplier
	// (BudgetMultiplier, DriveBudget); the harness applies it through the
	// controller's SetBudget path, so — like CtlCrash — the fault models an
	// external signal, not a wrapped dependency.
	BudgetDip Kind = "budget-dip"
)

// Fault is one declarative fault: a kind, an active window, and the kind's
// parameters.
type Fault struct {
	Kind Kind
	// From and To bound the active window [From, To).
	From, To sim.Time
	// Rate is the per-decision probability for stochastic kinds.
	Rate float64
	// Factor scales outlier readings (ReadOutlier).
	Factor float64
	// Lag ages reported sample timestamps (ReadLag).
	Lag sim.Duration
	// Latency is added to each API call (APILatency).
	Latency sim.Duration
	// Timeout, when positive, fails APILatency calls whose injected latency
	// reaches it.
	Timeout sim.Duration
	// Depth is the budget fraction removed by a BudgetDip (0.2 = a 20 %
	// curtailment); Dwell is how long each dip lasts once begun.
	Depth float64
	Dwell sim.Duration
}

func (f Fault) active(now sim.Time) bool { return now >= f.From && now < f.To }

// Plan is a seeded schedule of faults.
type Plan struct {
	Seed   uint64
	Faults []Fault
}

// Validate reports malformed plans: inverted windows, probabilities outside
// [0, 1], or missing kind parameters.
func (p Plan) Validate() error {
	for i, f := range p.Faults {
		switch {
		case f.To <= f.From:
			return fmt.Errorf("chaos: fault %d (%s): window [%v, %v) is empty", i, f.Kind, f.From, f.To)
		case f.Rate < 0 || f.Rate > 1 || math.IsNaN(f.Rate):
			return fmt.Errorf("chaos: fault %d (%s): rate %v outside [0, 1]", i, f.Kind, f.Rate)
		}
		switch f.Kind {
		case ReadBlackout, APIPersistent, StoreReject, CtlCrash:
		case ReadNaN, ReadOutlier, APITransient:
			if f.Rate == 0 {
				return fmt.Errorf("chaos: fault %d (%s): zero rate never fires", i, f.Kind)
			}
			if f.Kind == ReadOutlier && (f.Factor <= 0 || math.IsNaN(f.Factor)) {
				return fmt.Errorf("chaos: fault %d (%s): factor %v must be positive", i, f.Kind, f.Factor)
			}
		case ReadLag:
			if f.Lag <= 0 {
				return fmt.Errorf("chaos: fault %d (%s): non-positive lag %v", i, f.Kind, f.Lag)
			}
		case APILatency:
			if f.Latency <= 0 {
				return fmt.Errorf("chaos: fault %d (%s): non-positive latency %v", i, f.Kind, f.Latency)
			}
		case BudgetDip:
			if f.Rate == 0 {
				return fmt.Errorf("chaos: fault %d (%s): zero rate never fires", i, f.Kind)
			}
			if math.IsNaN(f.Depth) || f.Depth <= 0 || f.Depth >= 1 {
				return fmt.Errorf("chaos: fault %d (%s): depth %v outside (0, 1)", i, f.Kind, f.Depth)
			}
			if f.Dwell <= 0 {
				return fmt.Errorf("chaos: fault %d (%s): non-positive dwell %v", i, f.Kind, f.Dwell)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// Crashes returns the plan's CtlCrash faults in declaration order, for the
// harness to schedule.
func (p Plan) Crashes() []Fault {
	var out []Fault
	for _, f := range p.Faults {
		if f.Kind == CtlCrash {
			out = append(out, f)
		}
	}
	return out
}

// Stats counts what the injector actually did.
type Stats struct {
	// ReadsBlackedOut counts group reads answered from the frozen
	// pre-blackout snapshot.
	ReadsBlackedOut int64
	// ReadsNaN and ReadsOutlier count corrupted group readings served.
	ReadsNaN     int64
	ReadsOutlier int64
	// ReadsLagged counts group reads whose timestamp was aged.
	ReadsLagged int64
	// APIFailures counts Freeze/Unfreeze calls failed by injection.
	APIFailures int64
	// APILatency is the total latency injected into API calls.
	APILatency sim.Duration
	// StoreRejects counts TSDB writes rejected by injection.
	StoreRejects int64
	// BudgetDips counts transitions from an uncurtailed to a curtailed
	// budget (dip onsets as the driver saw them, not scheduled onsets);
	// CurtailedIntervals counts driver intervals spent below full budget.
	BudgetDips         int64
	CurtailedIntervals int64
}

// Injector owns a plan and hands out faulty wrappers for the control
// plane's dependencies. All wrappers share one Stats.
type Injector struct {
	eng   *sim.Engine
	plan  Plan
	stats Stats
	met   *chaosMetrics
}

// chaosMetrics mirrors Stats as atomic counters so a live /metrics scrape
// never races the simulation goroutine driving the wrappers.
type chaosMetrics struct {
	readsBlackedOut *obs.Counter
	readsNaN        *obs.Counter
	readsOutlier    *obs.Counter
	readsLagged     *obs.Counter
	apiFailures     *obs.Counter
	apiLatencyMS    *obs.Counter
	storeRejects    *obs.Counter
	budgetDips      *obs.Counter
	curtailedIvals  *obs.Counter
}

// Instrument registers the injector's counters on reg (nil is a no-op):
//
//	chaos_reads_blacked_out_total         counter
//	chaos_reads_nan_total                 counter
//	chaos_reads_outlier_total             counter
//	chaos_reads_lagged_total              counter
//	chaos_api_failures_total              counter
//	chaos_api_injected_latency_ms_total   counter, virtual milliseconds
//	chaos_store_rejects_total             counter
//	chaos_budget_dips_total               counter
//	chaos_curtailed_intervals_total       counter
//
// Call before handing out wrappers.
func (in *Injector) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	in.met = &chaosMetrics{
		readsBlackedOut: reg.Counter("chaos_reads_blacked_out_total",
			"Group reads answered from the frozen pre-blackout snapshot."),
		readsNaN: reg.Counter("chaos_reads_nan_total",
			"Group readings corrupted to NaN."),
		readsOutlier: reg.Counter("chaos_reads_outlier_total",
			"Group readings scaled to outliers."),
		readsLagged: reg.Counter("chaos_reads_lagged_total",
			"Group reads whose sample timestamp was aged."),
		apiFailures: reg.Counter("chaos_api_failures_total",
			"Freeze/Unfreeze calls failed by injection."),
		apiLatencyMS: reg.Counter("chaos_api_injected_latency_ms_total",
			"Total virtual latency injected into API calls, in milliseconds."),
		storeRejects: reg.Counter("chaos_store_rejects_total",
			"TSDB writes rejected by injection."),
		budgetDips: reg.Counter("chaos_budget_dips_total",
			"Transitions into a curtailed budget seen by the budget driver."),
		curtailedIvals: reg.Counter("chaos_curtailed_intervals_total",
			"Budget-driver intervals spent below full budget."),
	}
}

// New builds an injector for a validated plan.
func New(eng *sim.Engine, plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{eng: eng, plan: plan}, nil
}

// Plan returns the injector's fault plan.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// decide is the deterministic coin: true with probability rate, as a pure
// function of (seed, kind, now, salt). Callers that would flip the same
// coin at the same instant get the same answer, however many times they
// ask — so a retrying controller and a naive one see identical faults.
func (in *Injector) decide(kind Kind, now sim.Time, salt uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	x := sim.SubSeed(in.plan.Seed, string(kind)) ^ uint64(now)*0x9e3779b97f4a7c15 ^ salt*0xbf58476d1ce4e5b9
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < rate
}

// faultsOf yields the active faults of one kind at time now.
func (in *Injector) faultsOf(kind Kind, now sim.Time) []Fault {
	var out []Fault
	for _, f := range in.plan.Faults {
		if f.Kind == kind && f.active(now) {
			out = append(out, f)
		}
	}
	return out
}

// anyActive reports whether any fault of the kind is active at now.
func (in *Injector) anyActive(kind Kind, now sim.Time) (Fault, bool) {
	for _, f := range in.plan.Faults {
		if f.Kind == kind && f.active(now) {
			return f, true
		}
	}
	return Fault{}, false
}
