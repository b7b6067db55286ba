package whatif

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"

	"repro/internal/obs"
)

// Canonical returns ev with its wall-clock fields zeroed. Journal events are
// deterministic except for TickMS and APILatencyMS, which measure host time;
// every byte-identity comparison strips them first (the parallel_test.go
// convention).
func Canonical(ev obs.Event) obs.Event {
	ev.TickMS = 0
	ev.APILatencyMS = 0
	return ev
}

// canonicalAligned additionally zeros Seq: across policies the budget-change
// event cadence differs, shifting every later sequence number, so cross-run
// alignment must compare event content, not journal position.
func canonicalAligned(ev obs.Event) obs.Event {
	ev = Canonical(ev)
	ev.Seq = 0
	return ev
}

// CanonicalJSONL renders events as canonical JSONL — the byte string the
// self-replay identity tests compare.
func CanonicalJSONL(events []obs.Event) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, ev := range events {
		if err := enc.Encode(Canonical(ev)); err != nil {
			// Events are produced sanitized (no NaN/Inf); this cannot fire.
			panic(fmt.Sprintf("whatif: canonical encode: %v", err))
		}
	}
	return b.Bytes()
}

// RunView is the diff-relevant projection of one run.
type RunView struct {
	// Events is the journal suffix from the fork on.
	Events []obs.Event
	// Tripped lists breaker domains left open at the end of the run.
	Tripped []string
	// KPIs holds scenario scalars (scheduler job counters etc.).
	KPIs map[string]float64
	// IntervalMinutes is the control tick period in minutes; frozen-capacity
	// integration multiplies by it.
	IntervalMinutes float64
}

// View projects a Result for diffing.
func (r *Result) View(interval sim.Duration) RunView {
	return RunView{
		Events:          r.Events,
		Tripped:         r.TrippedBreakers,
		KPIs:            r.KPIs,
		IntervalMinutes: interval.Minutes(),
	}
}

// Outcome aggregates one run's scored consequences over the diffed window.
type Outcome struct {
	// Events is the journal-suffix length.
	Events int `json:"events"`
	// ViolationTicks counts decision events with observed power above budget
	// (fresh data only — degraded forecasts are not observations).
	ViolationTicks int64 `json:"violation_ticks"`
	// FrozenServerMinutes integrates frozen capacity over the window: the
	// scenario's capacity cost.
	FrozenServerMinutes float64 `json:"frozen_server_minutes"`
	FreezeOps           int64   `json:"freeze_ops"`
	UnfreezeOps         int64   `json:"unfreeze_ops"`
	// Trips counts breakers left open at scenario end; TrippedDomains names
	// them.
	Trips          int      `json:"trips"`
	TrippedDomains []string `json:"tripped_domains,omitempty"`
}

// DomainDiff locates where one domain's counterfactual first diverged from
// its factual trajectory.
type DomainDiff struct {
	Domain string `json:"domain"`
	// DivergedAtMS is the sim time of the first differing event (-1: the
	// domain's streams are identical).
	DivergedAtMS  int64  `json:"diverged_at_ms"`
	DivergedTime  string `json:"diverged_at,omitempty"`
	FactualAction string `json:"factual_action,omitempty"`
	AltAction     string `json:"alt_action,omitempty"`
	// FactualFrozen/AltFrozen are the realized frozen counts at divergence.
	FactualFrozen int `json:"factual_frozen,omitempty"`
	AltFrozen     int `json:"alt_frozen,omitempty"`
}

// KPIDelta is one scenario scalar, factual vs counterfactual.
type KPIDelta struct {
	Name    string  `json:"name"`
	Factual float64 `json:"factual"`
	Alt     float64 `json:"alt"`
	Delta   float64 `json:"delta"`
}

// Report is the scored comparison of a factual run and a counterfactual
// replay forked at ForkMS.
type Report struct {
	ForkMS   int64  `json:"fork_ms"`
	ForkTime string `json:"fork_time"`
	Patch    string `json:"patch,omitempty"`
	// Identical is true when the two journal suffixes match event-for-event
	// (the self-replay case).
	Identical bool `json:"identical"`

	Factual Outcome `json:"factual"`
	Alt     Outcome `json:"alt"`

	// Headline scores, oriented so positive = the counterfactual did better.
	ViolationTicksAvoided int64 `json:"violation_ticks_avoided"`
	// CapacityMinutesGained is factual frozen-server-minutes minus alt: how
	// much capacity the alternative policy would have kept schedulable.
	CapacityMinutesGained float64 `json:"capacity_minutes_gained"`
	TripsAvoided          int     `json:"trips_avoided"`

	Domains []DomainDiff `json:"domains"`
	KPIs    []KPIDelta   `json:"kpis,omitempty"`
}

// Diff aligns the factual and counterfactual event streams and scores the
// differences. Alignment is per domain by occurrence order: the k-th event
// of a domain in one stream corresponds to the k-th in the other (both runs
// tick every domain every interval, so the streams stay in step; only their
// interleaved budget-change cadence differs).
func Diff(fact, alt RunView, forkMS int64, patch string) *Report {
	rep := &Report{
		ForkMS:   forkMS,
		ForkTime: sim.Time(forkMS).String(),
		Patch:    patch,
		Factual:  outcome(fact),
		Alt:      outcome(alt),
	}
	rep.ViolationTicksAvoided = rep.Factual.ViolationTicks - rep.Alt.ViolationTicks
	rep.CapacityMinutesGained = rep.Factual.FrozenServerMinutes - rep.Alt.FrozenServerMinutes
	rep.TripsAvoided = rep.Factual.Trips - rep.Alt.Trips

	// Identity check first: equal-length streams whose aligned canonical
	// events all match.
	rep.Identical = len(fact.Events) == len(alt.Events)
	if rep.Identical {
		for i := range fact.Events {
			if canonicalAligned(fact.Events[i]) != canonicalAligned(alt.Events[i]) {
				rep.Identical = false
				break
			}
		}
	}

	// Per-domain divergence points.
	byDomain := func(events []obs.Event) (map[string][]obs.Event, []string) {
		m := map[string][]obs.Event{}
		var order []string
		for _, ev := range events {
			if _, seen := m[ev.Domain]; !seen {
				order = append(order, ev.Domain)
			}
			m[ev.Domain] = append(m[ev.Domain], ev)
		}
		return m, order
	}
	fm, order := byDomain(fact.Events)
	am, altOrder := byDomain(alt.Events)
	for _, d := range altOrder {
		if _, seen := fm[d]; !seen {
			order = append(order, d) // domain only present in the alt stream
		}
	}
	for _, d := range order {
		fe, ae := fm[d], am[d]
		dd := DomainDiff{Domain: d, DivergedAtMS: -1}
		n := min(len(fe), len(ae))
		for i := 0; i < n; i++ {
			if canonicalAligned(fe[i]) != canonicalAligned(ae[i]) {
				dd.DivergedAtMS = fe[i].SimMS
				dd.DivergedTime = fe[i].SimTime
				dd.FactualAction = fe[i].Action
				dd.AltAction = ae[i].Action
				dd.FactualFrozen = fe[i].Frozen
				dd.AltFrozen = ae[i].Frozen
				break
			}
		}
		if dd.DivergedAtMS < 0 && len(fe) != len(ae) {
			// One stream is a strict prefix of the other (e.g. extra
			// budget-change events): the divergence is the first unmatched
			// event.
			longer := fe
			which := &dd.FactualAction
			if len(ae) > len(fe) {
				longer = ae
				which = &dd.AltAction
			}
			dd.DivergedAtMS = longer[n].SimMS
			dd.DivergedTime = longer[n].SimTime
			*which = longer[n].Action
		}
		rep.Domains = append(rep.Domains, dd)
	}

	// KPI deltas, sorted by name for deterministic output.
	keys := map[string]bool{}
	for k := range fact.KPIs {
		keys[k] = true
	}
	for k := range alt.KPIs {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		f, a := fact.KPIs[k], alt.KPIs[k]
		rep.KPIs = append(rep.KPIs, KPIDelta{Name: k, Factual: f, Alt: a, Delta: a - f})
	}
	return rep
}

// outcome scores one run's event stream.
func outcome(v RunView) Outcome {
	out := Outcome{
		Events:         len(v.Events),
		Trips:          len(v.Tripped),
		TrippedDomains: v.Tripped,
	}
	for _, ev := range v.Events {
		if ev.Action == "budget-change" {
			continue
		}
		if !ev.Degraded && ev.PNorm > 1.0 {
			out.ViolationTicks++
		}
		out.FrozenServerMinutes += float64(ev.Frozen) * v.IntervalMinutes
		out.FreezeOps += ev.Froze
		out.UnfreezeOps += ev.Unfroze
	}
	return out
}

// Format renders the report as the deterministic operator-facing text block
// `ampere-trace why` prints.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fork      %s (sim_ms=%d)\n", r.ForkTime, r.ForkMS)
	if r.Patch == "" {
		fmt.Fprintf(&b, "patch     (none: self-replay)\n")
	} else {
		fmt.Fprintf(&b, "patch     %s\n", r.Patch)
	}
	if r.Identical {
		fmt.Fprintf(&b, "verdict   identical: the counterfactual reproduces the factual run exactly\n")
	} else {
		fmt.Fprintf(&b, "verdict   diverged\n")
	}
	fmt.Fprintf(&b, "events    factual=%d alt=%d\n", r.Factual.Events, r.Alt.Events)
	fmt.Fprintf(&b, "trips     factual=%d alt=%d avoided=%d\n",
		r.Factual.Trips, r.Alt.Trips, r.TripsAvoided)
	if len(r.Factual.TrippedDomains) > 0 {
		fmt.Fprintf(&b, "  factual tripped: %s\n", strings.Join(r.Factual.TrippedDomains, " "))
	}
	if len(r.Alt.TrippedDomains) > 0 {
		fmt.Fprintf(&b, "  alt tripped:     %s\n", strings.Join(r.Alt.TrippedDomains, " "))
	}
	fmt.Fprintf(&b, "violation ticks   factual=%d alt=%d avoided=%d\n",
		r.Factual.ViolationTicks, r.Alt.ViolationTicks, r.ViolationTicksAvoided)
	fmt.Fprintf(&b, "frozen capacity   factual=%.1f alt=%.1f server-minutes gained=%.1f\n",
		r.Factual.FrozenServerMinutes, r.Alt.FrozenServerMinutes, r.CapacityMinutesGained)
	fmt.Fprintf(&b, "freeze ops        factual=%d/%d alt=%d/%d (freeze/unfreeze)\n",
		r.Factual.FreezeOps, r.Factual.UnfreezeOps, r.Alt.FreezeOps, r.Alt.UnfreezeOps)
	for _, d := range r.Domains {
		if d.DivergedAtMS < 0 {
			fmt.Fprintf(&b, "domain %-10s identical\n", d.Domain)
		} else {
			fmt.Fprintf(&b, "domain %-10s diverged at %s (%s -> %s, frozen %d -> %d)\n",
				d.Domain, d.DivergedTime, d.FactualAction, d.AltAction,
				d.FactualFrozen, d.AltFrozen)
		}
	}
	for _, k := range r.KPIs {
		fmt.Fprintf(&b, "kpi %-22s factual=%g alt=%g delta=%+g\n", k.Name, k.Factual, k.Alt, k.Delta)
	}
	return b.String()
}
