// Package capping implements the hardware power-capping baseline the paper
// compares against (§2.1, §4.3): a fast RAPL/DVFS-style reactive loop that,
// whenever a power domain (a row PDU, or a virtual group in controlled
// experiments) exceeds its budget, scales server frequencies down so the
// aggregate draw fits. Unlike Ampere it acts on running jobs — slowed CPUs
// inflate batch durations and interactive latencies — which is exactly the
// SLA damage Fig 11 quantifies.
package capping

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Domain is one independently budgeted set of servers.
type Domain struct {
	Name    string
	Servers []*cluster.Server
	// BudgetW is the enforced power budget; the capper keeps the domain's
	// total draw at or below it.
	BudgetW float64
}

// Stats describes one domain's capping activity.
type Stats struct {
	Intervals       int64 // control intervals observed
	CappedIntervals int64 // intervals with at least one capped server
	CapTransitions  int64 // cap applied where there was none
	// CappedServerSamples / ServerSamples gives the fraction of
	// server-intervals spent capped (the paper reports 54.34 % of servers
	// capped for ~15 % of the time without Ampere).
	CappedServerSamples int64
	ServerSamples       int64
}

// Mode selects the capping policy.
type Mode int

const (
	// Proportional (the default) coordinates across the domain: when the
	// total demand exceeds the budget, every server's active power scales
	// by the same factor, so slack on cold servers benefits hot ones.
	Proportional Mode = iota
	// PerServerStatic is the naive baseline: every server permanently
	// capped at budget/n, its fair share, with no coordination. Safe by
	// construction but wasteful — a hot server throttles even while its
	// neighbours idle. The ablation quantifies the cost (§2.1's argument
	// for dynamic power management).
	PerServerStatic
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Proportional:
		return "proportional"
	case PerServerStatic:
		return "per-server-static"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config controls the reaction loop.
type Config struct {
	// Interval is the reaction period. RAPL reacts in under a millisecond;
	// we default to one simulated second, far faster than workload dynamics
	// and the 1-minute monitor, which preserves its "instant safety net"
	// role without milliseconds-scale event load.
	Interval sim.Duration
	// Mode selects the capping policy (Proportional by default).
	Mode Mode
}

// DefaultConfig returns the 1-second reaction loop.
func DefaultConfig() Config { return Config{Interval: sim.Second} }

// Capper runs the reactive loop over a set of domains.
type Capper struct {
	eng     *sim.Engine
	cfg     Config
	domains []Domain
	stats   []Stats
	handle  sim.Handle
}

// New validates the domains and builds a capper.
func New(eng *sim.Engine, cfg Config, domains []Domain) (*Capper, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("capping: non-positive interval %v", cfg.Interval)
	}
	for i, d := range domains {
		if len(d.Servers) == 0 {
			return nil, fmt.Errorf("capping: domain %d (%s) has no servers", i, d.Name)
		}
		if d.BudgetW <= 0 {
			return nil, fmt.Errorf("capping: domain %d (%s) has budget %v", i, d.Name, d.BudgetW)
		}
	}
	return &Capper{eng: eng, cfg: cfg, domains: domains, stats: make([]Stats, len(domains))}, nil
}

// RowDomains builds one domain per cluster row with the given budgets
// (budgets[r] ≤ 0 leaves row r uncontrolled).
func RowDomains(c *cluster.Cluster, budgets []float64) []Domain {
	var out []Domain
	for r := 0; r < c.Rows(); r++ {
		if r >= len(budgets) || budgets[r] <= 0 {
			continue
		}
		out = append(out, Domain{
			Name:    fmt.Sprintf("row/%d", r),
			Servers: c.Row(r),
			BudgetW: budgets[r],
		})
	}
	return out
}

// Start begins the reaction loop.
func (cp *Capper) Start() {
	if cp.handle != (sim.Handle{}) {
		return
	}
	cp.handle = cp.eng.Every(cp.eng.Now(), cp.cfg.Interval, "power-capper", cp.step)
}

// Stop halts the loop, leaving current caps in place.
func (cp *Capper) Stop() {
	cp.eng.Cancel(cp.handle)
	cp.handle = sim.Handle{}
}

// Stats returns a copy of domain i's counters.
func (cp *Capper) Stats(i int) Stats { return cp.stats[i] }

// Budget returns domain i's enforced budget in watts.
func (cp *Capper) Budget(i int) float64 { return cp.domains[i].BudgetW }

// SetBudget retargets domain i's enforced budget at runtime. A capper
// deployed as Ampere's safety net follows the controller's effective budget
// (core.Controller.OnBudgetChange), so a demand-response curtailment tightens
// the last-resort cap along with the control target.
func (cp *Capper) SetBudget(i int, w float64) error {
	if i < 0 || i >= len(cp.domains) {
		return fmt.Errorf("capping: domain %d out of range [0,%d)", i, len(cp.domains))
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("capping: domain %d (%s) budget %v must be positive and finite",
			i, cp.domains[i].Name, w)
	}
	cp.domains[i].BudgetW = w
	return nil
}

// stepStatic enforces the uncoordinated fair-share policy: each server
// permanently capped at budget/n when its demand exceeds that share.
func (cp *Capper) stepStatic(d *Domain, st *Stats) {
	st.ServerSamples += int64(len(d.Servers))
	share := d.BudgetW / float64(len(d.Servers))
	anyCapped := false
	for _, sv := range d.Servers {
		wasCapped := sv.Capped()
		if sv.DemandW() > share {
			if !wasCapped || relDiff(sv.CapLevelW(), share) > 0.001 {
				sv.ApplyCap(share)
			}
			st.CappedServerSamples++
			anyCapped = true
			if !wasCapped {
				st.CapTransitions++
			}
		} else if wasCapped {
			sv.RemoveCap()
		}
	}
	if anyCapped {
		st.CappedIntervals++
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return d
	}
	return d / b
}

// step is one reaction: per domain, compare uncapped demand to the budget
// and apply proportional frequency scaling of the above-idle power.
func (cp *Capper) step(sim.Time) {
	for i := range cp.domains {
		d := &cp.domains[i]
		st := &cp.stats[i]
		st.Intervals++

		if cp.cfg.Mode == PerServerStatic {
			cp.stepStatic(d, st)
			continue
		}

		var demand, idleSum float64
		for _, sv := range d.Servers {
			demand += sv.DemandW()
			idleSum += sv.IdleW()
		}
		st.ServerSamples += int64(len(d.Servers))

		if demand <= d.BudgetW {
			for _, sv := range d.Servers {
				if sv.Capped() {
					sv.RemoveCap()
				}
			}
			continue
		}

		st.CappedIntervals++
		// Scale every server's active (above-idle) draw by the same factor.
		// Idle power is not reducible by DVFS, so the scaling applies to the
		// active portion only; if even all-idle exceeds the budget the caps
		// floor at the minimum frequency and the domain stays over budget
		// (a real breaker-risk condition).
		factor := 0.0
		if demand > idleSum {
			factor = (d.BudgetW - idleSum) / (demand - idleSum)
		}
		if factor < 0 {
			factor = 0
		}
		for _, sv := range d.Servers {
			idle := sv.IdleW()
			level := idle + (sv.DemandW()-idle)*factor
			if level <= 0 {
				level = 1 // cap must be positive; floors frequency anyway
			}
			wasCapped := sv.Capped()
			if sv.DemandW() > level {
				// Re-issuing a near-identical cap would force the executor
				// to reschedule every running job's completion each
				// interval; real RAPL quantizes to frequency steps anyway,
				// so a 2 % dead band is faithful and cheap.
				if !wasCapped || relDiff(sv.CapLevelW(), level) > 0.02 {
					sv.ApplyCap(level)
				}
				st.CappedServerSamples++
				if !wasCapped {
					st.CapTransitions++
				}
			} else if wasCapped {
				sv.RemoveCap()
			}
		}
	}
}
