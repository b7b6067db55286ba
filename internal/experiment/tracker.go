// Package experiment implements the paper's evaluation methodology: the
// controlled-experiment design of §4.1.2 (parity-split virtual groups,
// scaled-budget emulation of over-provisioning) and one runner per table and
// figure in §4, each reproducing the corresponding series or rows.
package experiment

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Groups is the §4.1.2 controlled-experiment split of one server population
// into two statistically identical virtual groups.
type Groups struct {
	Exp  []cluster.ServerID
	Ctrl []cluster.ServerID
}

// SplitByParity assigns servers to the experiment group (even IDs) or the
// control group (odd IDs) — "based on the parity of the server IDs and thus
// a server is assigned to a group in a uniformly random way".
func SplitByParity(servers []*cluster.Server) Groups {
	var g Groups
	for _, sv := range servers {
		if sv.ID%2 == 0 {
			g.Exp = append(g.Exp, sv.ID)
		} else {
			g.Ctrl = append(g.Ctrl, sv.ID)
		}
	}
	return g
}

// Group is one tracked server set with an optional enforced budget.
type Group struct {
	Name string
	IDs  []cluster.ServerID
	// BudgetW, when positive, defines violations: samples with group power
	// strictly above it. It is the group's *initial* budget; a time-varying
	// run updates it with Tracker.SetGroupBudget, and every violation or
	// normalization is judged against the budget recorded at that sample.
	BudgetW float64
}

// Tracker records per-monitor-sample group power, throughput and arbitrary
// probe values, giving experiments minute-resolution series to analyze.
type Tracker struct {
	rig        *stack.Stack
	groups     []Group
	idToGroup  map[cluster.ServerID]int
	times      []sim.Time
	power      [][]float64 // [group][sample]
	budgets    [][]float64 // [group][sample] effective budget at sample time
	curBudget  []float64   // effective budget to record at the next sample
	violations []int
	placedCum  []int64   // cumulative placements per group
	placed     [][]int64 // [group][sample] cumulative at sample time
	probes     []probe
	probeVals  [][]float64
}

type probe struct {
	name string
	fn   func() float64
}

// NewTracker attaches a tracker to the rig's monitor and scheduler. Create
// it before starting the rig so the first sample is captured. Placement
// attribution silently ignores servers outside all groups.
func NewTracker(rig *stack.Stack, groups []Group) (*Tracker, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("experiment: tracker needs at least one group")
	}
	t := &Tracker{
		rig:        rig,
		groups:     groups,
		idToGroup:  make(map[cluster.ServerID]int),
		power:      make([][]float64, len(groups)),
		budgets:    make([][]float64, len(groups)),
		curBudget:  make([]float64, len(groups)),
		violations: make([]int, len(groups)),
		placedCum:  make([]int64, len(groups)),
		placed:     make([][]int64, len(groups)),
	}
	for gi, g := range groups {
		if len(g.IDs) == 0 {
			return nil, fmt.Errorf("experiment: group %q is empty", g.Name)
		}
		t.curBudget[gi] = g.BudgetW
		for _, id := range g.IDs {
			t.idToGroup[id] = gi
		}
	}
	rig.Sched.OnPlace(func(j *workload.Job, sv *cluster.Server) {
		if gi, ok := t.idToGroup[sv.ID]; ok {
			t.placedCum[gi]++
		}
	})
	rig.Mon.OnSample(t.sample)
	return t, nil
}

// AddProbe records fn() at every monitor sample under the given name (e.g.
// the controller's current freezing ratio). Add probes before starting the
// rig.
func (t *Tracker) AddProbe(name string, fn func() float64) {
	t.probes = append(t.probes, probe{name: name, fn: fn})
	t.probeVals = append(t.probeVals, nil)
}

// SetGroupBudget updates the effective budget recorded from the next sample
// onward — the tracker-side mirror of a controller budget change. Call it
// from the simulation goroutine (e.g. a core.OnBudgetChange callback); like
// every Tracker mutation it is not safe for concurrent use.
func (t *Tracker) SetGroupBudget(gi int, w float64) {
	t.curBudget[gi] = w
}

func (t *Tracker) sample(now sim.Time) {
	t.times = append(t.times, now)
	for gi, g := range t.groups {
		p, ok := t.rig.Mon.GroupPower(g.IDs)
		if !ok {
			p = 0
		}
		b := t.curBudget[gi]
		t.power[gi] = append(t.power[gi], p)
		t.budgets[gi] = append(t.budgets[gi], b)
		if b > 0 && p > b {
			t.violations[gi]++
		}
		t.placed[gi] = append(t.placed[gi], t.placedCum[gi])
	}
	for pi, pr := range t.probes {
		t.probeVals[pi] = append(t.probeVals[pi], pr.fn())
	}
}

// Samples returns the number of recorded monitor samples.
func (t *Tracker) Samples() int { return len(t.times) }

// Times returns the sample timestamps.
func (t *Tracker) Times() []sim.Time { return t.times }

// IndexAt returns the index of the first sample at or after tm; len(times)
// when every sample precedes tm. Sample times are appended in monitor order
// and therefore sorted, so this is a binary search — IndexAt is called once
// per series extraction, and day-long runs hold thousands of samples.
func (t *Tracker) IndexAt(tm sim.Time) int {
	return sort.Search(len(t.times), func(i int) bool { return t.times[i] >= tm })
}

// PowerSeries returns group gi's power samples (watts) from sample index
// from (inclusive) onward.
func (t *Tracker) PowerSeries(gi, from int) []float64 {
	return t.power[gi][from:]
}

// NormPowerSeries returns group gi's power normalized to the effective
// budget recorded at each sample, so the series stays meaningful while
// PM(t) varies. A sample without a positive budget has no normalization
// scale — consistent with Violations, it is reported as zero rather than
// +Inf/NaN, so downstream statistics and CSV exports never see non-finite
// values.
func (t *Tracker) NormPowerSeries(gi, from int) []float64 {
	src := t.power[gi][from:]
	bs := t.budgets[gi][from:]
	out := make([]float64, len(src))
	for i, v := range src {
		if b := bs[i]; b > 0 {
			out[i] = v / b
		}
	}
	return out
}

// BudgetSeries returns the effective budget recorded at each of group gi's
// samples from sample index from onward.
func (t *Tracker) BudgetSeries(gi, from int) []float64 {
	return t.budgets[gi][from:]
}

// Violations counts group gi's over-budget samples from sample index from,
// judging each sample against the budget in force when it was taken.
func (t *Tracker) Violations(gi, from int) int {
	return t.ViolationsBetween(gi, from, -1)
}

// ViolationsBetween counts group gi's over-budget samples in the sample
// index window [from, to] (to = −1 means the latest sample) — the tool for
// isolating a curtailment's ramp window from its steady tail.
func (t *Tracker) ViolationsBetween(gi, from, to int) int {
	xs := t.power[gi]
	if to < 0 || to >= len(xs) {
		to = len(xs) - 1
	}
	n := 0
	for i := from; i <= to; i++ {
		if b := t.budgets[gi][i]; b > 0 && xs[i] > b {
			n++
		}
	}
	return n
}

// PlacedBetween returns the number of jobs placed on group gi's servers
// between sample indices from and to (to = −1 means the latest sample).
func (t *Tracker) PlacedBetween(gi, from, to int) int64 {
	series := t.placed[gi]
	if len(series) == 0 {
		return 0
	}
	if to < 0 || to >= len(series) {
		to = len(series) - 1
	}
	var start int64
	if from > 0 {
		start = series[from-1]
	}
	return series[to] - start
}

// PlacedSeries returns per-sample placement increments for group gi from
// sample index from onward.
func (t *Tracker) PlacedSeries(gi, from int) []int64 {
	series := t.placed[gi]
	out := make([]int64, 0, len(series)-from)
	prev := int64(0)
	if from > 0 {
		prev = series[from-1]
	}
	for _, v := range series[from:] {
		out = append(out, v-prev)
		prev = v
	}
	return out
}

// ProbeSeries returns probe pi's samples from index from onward.
func (t *Tracker) ProbeSeries(pi, from int) []float64 {
	return t.probeVals[pi][from:]
}

// Group returns the tracked group gi.
func (t *Tracker) Group(gi int) Group { return t.groups[gi] }
