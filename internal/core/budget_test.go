package core

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestBudgetScheduleValidate(t *testing.T) {
	good := &BudgetSchedule{
		Steps:    []BudgetStep{{At: sim.Time(sim.Minute), BudgetW: 800}, {At: sim.Time(2 * sim.Minute), BudgetW: 1000}},
		RampFrac: 0.05,
	}
	if err := good.Validate(1000); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bads := []BudgetSchedule{
		{RampFrac: -0.1},
		{RampFrac: 1.5},
		{RampFrac: math.NaN()},
		{Steps: []BudgetStep{{At: 0, BudgetW: 0}}},
		{Steps: []BudgetStep{{At: 0, BudgetW: math.Inf(1)}}},
		{Steps: []BudgetStep{{At: sim.Time(-sim.Minute), BudgetW: 500}}},
		{Steps: []BudgetStep{{At: sim.Time(sim.Minute), BudgetW: 500}, {At: sim.Time(sim.Minute), BudgetW: 600}}},
		{Steps: []BudgetStep{{At: sim.Time(2 * sim.Minute), BudgetW: 500}, {At: sim.Time(sim.Minute), BudgetW: 600}}},
	}
	for i, s := range bads {
		if err := s.Validate(1000); err == nil {
			t.Errorf("bad schedule %d accepted: %+v", i, s)
		}
	}
	// New rejects a domain carrying an invalid schedule.
	d := Domain{Name: "d", Servers: ids(2), BudgetW: 100, Kr: 0.10,
		Schedule: &BudgetSchedule{RampFrac: 2}}
	if _, err := New(sim.NewEngine(), uniformReader(2, 10), newFakeAPI(), DefaultConfig(), []Domain{d}); err == nil {
		t.Error("domain with invalid schedule accepted")
	}
}

func TestBudgetScheduleTargetAt(t *testing.T) {
	s := &BudgetSchedule{Steps: []BudgetStep{
		{At: sim.Time(10 * sim.Minute), BudgetW: 800},
		{At: sim.Time(20 * sim.Minute), BudgetW: 1000},
	}}
	cases := []struct {
		now  sim.Time
		want float64
	}{
		{0, 1000},
		{sim.Time(10*sim.Minute) - 1, 1000},
		{sim.Time(10 * sim.Minute), 800},
		{sim.Time(15 * sim.Minute), 800},
		{sim.Time(20 * sim.Minute), 1000},
		{sim.Time(99 * sim.Minute), 1000},
	}
	for _, c := range cases {
		if got := s.TargetAt(c.now, 1000); got != c.want {
			t.Errorf("TargetAt(%v) = %v, want %v", c.now, got, c.want)
		}
	}
}

// TestBudgetCliffDip checks that a scheduled cliff re-normalizes the control
// law on the tick it lands: a load comfortably inside the base budget becomes
// an imminent violation under the dipped budget and servers freeze.
func TestBudgetCliffDip(t *testing.T) {
	reader := uniformReader(10, 85) // 850 W, p = 0.85 at base 1000 W
	api := newFakeAPI()
	cfg := DefaultConfig()
	d := Domain{
		Name: "grp", Servers: ids(10), BudgetW: 1000, Kr: 0.10, Et: ConstantEt(0.05),
		Schedule: &BudgetSchedule{Steps: []BudgetStep{{At: sim.Time(3 * sim.Minute), BudgetW: 800}}},
	}
	ctl, err := New(sim.NewEngine(), reader, api, cfg, []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	for m := sim.Duration(1); m <= 2; m++ {
		ctl.Step(sim.Time(m * sim.Minute))
	}
	if got := ctl.FrozenCount(0); got != 0 {
		t.Fatalf("frozen %d before the dip, want 0 (p=0.85 needs no control)", got)
	}
	if got := ctl.EffectiveBudget(0); got != 1000 {
		t.Fatalf("effective budget %v before the dip, want 1000", got)
	}
	ctl.Step(sim.Time(3 * sim.Minute))
	if got := ctl.EffectiveBudget(0); got != 800 {
		t.Fatalf("effective budget %v after cliff, want 800", got)
	}
	// p = 850/800 = 1.0625; u = (1.0625−1+0.05)/0.1 = 1.125 → MaxFreezeRatio
	// 0.5 → 5 servers.
	if got := ctl.FrozenCount(0); got != 5 {
		t.Fatalf("frozen %d after cliff, want 5", got)
	}
	if v := ctl.Stats(0).Violations; v != 1 {
		t.Fatalf("violations %d, want 1 (the 850 W sample is over the 800 W budget)", v)
	}
}

// TestBudgetRampLimiting checks RampFrac spreads a dip over ticks and that
// the restore ramps back symmetrically.
func TestBudgetRampLimiting(t *testing.T) {
	reader := uniformReader(10, 50) // cold: control never engages
	api := newFakeAPI()
	d := Domain{
		Name: "grp", Servers: ids(10), BudgetW: 1000, Kr: 0.10, Et: ConstantEt(0.05),
		Schedule: &BudgetSchedule{
			Steps: []BudgetStep{
				{At: sim.Time(sim.Minute), BudgetW: 800},
				{At: sim.Time(10 * sim.Minute), BudgetW: 1000},
			},
			RampFrac: 0.05, // 50 W per tick: 4 ticks down, 4 ticks up
		},
	}
	ctl, err := New(sim.NewEngine(), reader, api, DefaultConfig(), []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{950, 900, 850, 800, 800, 800, 800, 800, 800, 850, 900, 950, 1000, 1000}
	for i, w := range want {
		now := sim.Time(sim.Duration(i+1) * sim.Minute)
		ctl.Step(now)
		if got := ctl.EffectiveBudget(0); got != w {
			t.Fatalf("tick %d (t=%v): effective budget %v, want %v", i+1, now, got, w)
		}
	}
	if tgt := ctl.budgetTarget(ctl.domains[0], sim.Time(sim.Duration(len(want))*sim.Minute)); tgt != 1000 {
		t.Fatalf("target budget %v after restore, want 1000", tgt)
	}
}

func TestSetBudgetValidationAndOverride(t *testing.T) {
	reader := uniformReader(10, 85)
	ctl := newTestController(t, reader, newFakeAPI(), 0.05)
	for _, w := range []float64{0, -100, math.NaN(), math.Inf(1), 2500} {
		if err := ctl.SetBudget(0, w); err == nil {
			t.Errorf("SetBudget(%v) accepted", w)
		}
	}
	if err := ctl.SetBudget(1, 900); err == nil {
		t.Error("SetBudget out-of-range domain accepted")
	}
	if err := ctl.SetBudget(0, 800); err != nil {
		t.Fatal(err)
	}
	ctl.Step(sim.Time(sim.Minute))
	if got := ctl.EffectiveBudget(0); got != 800 {
		t.Fatalf("effective budget %v under override, want 800", got)
	}
	if got := ctl.FrozenCount(0); got != 5 {
		t.Fatalf("frozen %d under 800 W override, want 5", got)
	}
	if err := ctl.ClearBudget(0); err != nil {
		t.Fatal(err)
	}
	reader.servers = uniformReader(10, 50).servers // cool off so control releases
	ctl.Step(sim.Time(2 * sim.Minute))
	if got := ctl.EffectiveBudget(0); got != 1000 {
		t.Fatalf("effective budget %v after ClearBudget, want 1000", got)
	}
}

func TestOnBudgetChangeAndJournal(t *testing.T) {
	reader := uniformReader(10, 50)
	api := newFakeAPI()
	d := Domain{
		Name: "grp", Servers: ids(10), BudgetW: 1000, Kr: 0.10, Et: ConstantEt(0.05),
		Schedule: &BudgetSchedule{
			Steps:    []BudgetStep{{At: sim.Time(sim.Minute), BudgetW: 900}},
			RampFrac: 0.05,
		},
	}
	ctl, err := New(sim.NewEngine(), reader, api, DefaultConfig(), []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	journal := obs.NewJournal(64)
	ctl.Instrument(nil, journal)
	var changes []BudgetChange
	ctl.OnBudgetChange(func(bc BudgetChange) { changes = append(changes, bc) })

	ctl.Step(sim.Time(sim.Minute))     // 1000 → 950
	ctl.Step(sim.Time(2 * sim.Minute)) // 950 → 900
	ctl.Step(sim.Time(3 * sim.Minute)) // settled: no change

	if len(changes) != 2 {
		t.Fatalf("got %d budget changes, want 2: %+v", len(changes), changes)
	}
	first := changes[0]
	if first.Domain != 0 || first.Name != "grp" || first.OldW != 1000 || first.NewW != 950 || first.TargetW != 900 {
		t.Fatalf("unexpected first change: %+v", first)
	}
	if changes[1].OldW != 950 || changes[1].NewW != 900 {
		t.Fatalf("unexpected second change: %+v", changes[1])
	}

	evs := journal.Snapshot()
	// Tick 1 emits the budget-change event immediately before its decision
	// event; tick 3 emits a decision only.
	var budgetEvs []obs.Event
	for _, ev := range evs {
		if ev.Action == "budget-change" {
			budgetEvs = append(budgetEvs, ev)
		}
	}
	if len(budgetEvs) != 2 {
		t.Fatalf("got %d budget-change events, want 2", len(budgetEvs))
	}
	if budgetEvs[0].OldBudgetW != 1000 || budgetEvs[0].BudgetW != 950 || budgetEvs[0].TargetBudgetW != 900 {
		t.Fatalf("unexpected budget event: %+v", budgetEvs[0])
	}
	if evs[0].Action != "budget-change" || evs[1].Action == "budget-change" {
		t.Fatalf("budget-change must precede its tick's decision event, got %q then %q",
			evs[0].Action, evs[1].Action)
	}
	if evs[1].BudgetW != 950 {
		t.Fatalf("decision event carries budget %v, want 950", evs[1].BudgetW)
	}
}

// TestEveryBudgetCallbackRunsInOrder: each callback registered with
// OnBudgetChange sees every movement, and within a movement they run in
// registration order.
func TestEveryBudgetCallbackRunsInOrder(t *testing.T) {
	domain := func(name string, servers []cluster.ServerID, budgetW, stepW float64) Domain {
		return Domain{
			Name: name, Servers: servers, BudgetW: budgetW, Kr: 0.10, Et: ConstantEt(0.05),
			Schedule: &BudgetSchedule{
				Steps:    []BudgetStep{{At: sim.Time(sim.Minute), BudgetW: stepW}},
				RampFrac: 0.05,
			},
		}
	}
	d0, d1 := domain("grp", ids(20)[:10], 1000, 900), domain("grp1", ids(20)[10:], 2000, 1800)
	ctl, err := New(sim.NewEngine(), uniformReader(20, 50), newFakeAPI(), DefaultConfig(), []Domain{d0, d1})
	if err != nil {
		t.Fatal(err)
	}
	var calls []string
	for _, who := range []string{"first", "second", "third"} {
		ctl.OnBudgetChange(func(bc BudgetChange) {
			calls = append(calls, fmt.Sprintf("%s %s %v→%v", who, bc.Name, bc.OldW, bc.NewW))
		})
	}
	for m := 1; m <= 3; m++ {
		ctl.Step(sim.Time(m) * sim.Time(sim.Minute))
	}
	want := []string{
		"first grp 1000→950", "second grp 1000→950", "third grp 1000→950",
		"first grp1 2000→1900", "second grp1 2000→1900", "third grp1 2000→1900",
		"first grp 950→900", "second grp 950→900", "third grp 950→900",
		"first grp1 1900→1800", "second grp1 1900→1800", "third grp1 1900→1800",
	}
	if !slices.Equal(calls, want) {
		t.Errorf("callbacks ran\n%q\nwant\n%q", calls, want)
	}
}

// TestBudgetStatusAndHealthz asserts the effective-budget fields on the
// operator JSON API and the budget_curtailed degraded reason.
func TestBudgetStatusAndHealthz(t *testing.T) {
	reader := uniformReader(10, 85)
	ctl := newTestController(t, reader, newFakeAPI(), 0.05)
	if err := ctl.SetBudget(0, 800); err != nil {
		t.Fatal(err)
	}
	ctl.Step(sim.Time(sim.Minute))

	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	var sts []DomainStatus
	getJSON(t, srv.URL+"/domains", http.StatusOK, &sts)
	if len(sts) != 1 {
		t.Fatalf("got %d domains, want 1", len(sts))
	}
	st := sts[0]
	if st.BudgetW != 1000 || st.EffectiveBudgetW != 800 || st.BudgetTargetW != 800 || !st.BudgetCurtailed {
		t.Fatalf("unexpected status budget view: %+v", st)
	}
	// The raw JSON must carry the documented field names.
	resp, err := http.Get(srv.URL + "/domains")
	if err != nil {
		t.Fatal(err)
	}
	var raw []map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"budget_w", "effective_budget_w", "budget_target_w", "budget_curtailed"} {
		if _, ok := raw[0][key]; !ok {
			t.Errorf("status JSON missing %q", key)
		}
	}

	var h Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.State != HealthOK {
		t.Fatalf("curtailment must not degrade health state, got %q", h.State)
	}
	dh := h.Domains[0]
	if dh.EffectiveBudgetW != 800 {
		t.Fatalf("healthz effective budget %v, want 800", dh.EffectiveBudgetW)
	}
	if len(dh.Reasons) != 1 || dh.Reasons[0] != "budget_curtailed" {
		t.Fatalf("healthz reasons %v, want [budget_curtailed]", dh.Reasons)
	}

	// Restored budget clears the reason.
	if err := ctl.ClearBudget(0); err != nil {
		t.Fatal(err)
	}
	reader.servers = uniformReader(10, 50).servers
	ctl.Step(sim.Time(2 * sim.Minute))
	var restored Health
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &restored)
	if len(restored.Domains[0].Reasons) != 0 {
		t.Fatalf("reasons %v after restore, want none", restored.Domains[0].Reasons)
	}
}

func getJSON(t *testing.T, url string, wantCode int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetBackwardCompat pins the invariant the rest of the suite depends
// on: without a schedule or override, the effective budget is the base budget
// forever and no budget events are emitted.
func TestBudgetBackwardCompat(t *testing.T) {
	reader := uniformReader(10, 95)
	ctl := newTestController(t, reader, newFakeAPI(), 0.05)
	journal := obs.NewJournal(64)
	ctl.Instrument(nil, journal)
	fired := false
	ctl.OnBudgetChange(func(BudgetChange) { fired = true })
	for m := sim.Duration(1); m <= 5; m++ {
		ctl.Step(sim.Time(m * sim.Minute))
	}
	if got := ctl.EffectiveBudget(0); got != 1000 {
		t.Fatalf("effective budget %v, want the base 1000", got)
	}
	if fired {
		t.Error("OnBudgetChange fired without any budget source")
	}
	for _, ev := range journal.Snapshot() {
		if ev.Action == "budget-change" {
			t.Fatalf("spurious budget-change event: %+v", ev)
		}
	}
}
