package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The scripted scenario drives fail-safe, degraded operation and API retry
// together — monitor blackouts, stale samples, corrupt readings and API
// failures in one run — and pins the controller's journal stream,
// statistics and frozen sets to a digest (the DESIGN.md §7 determinism
// contract).

// scriptReader serves a fully deterministic scenario keyed on (tick, id):
// powers ramp through the control threshold, one domain starts dark, one
// goes stale mid-run (driving degraded and fail-safe modes), and scattered
// server samples are missing or NaN to exercise the ranking guards.
type scriptReader struct {
	tick int
	snap []float64
	span []cluster.ServerID
}

func (r *scriptReader) domainOf(id cluster.ServerID) int { return int(id) / scriptServersPerDomain }

const (
	scriptDomains          = 8
	scriptServersPerDomain = 40
	scriptTicks            = 240
)

// mix is a splitmix64-style hash for per-(tick,server) variation.
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// serverWatts is the scripted draw of one server at one tick: a per-server
// jitter on top of a global triangle ramp that sweeps the domain p through
// the freeze threshold and back.
func serverWatts(tick int, id cluster.ServerID) float64 {
	phase := tick % 120
	if phase > 60 {
		phase = 120 - phase
	}
	ramp := 0.70 + 0.55*float64(phase)/60 // 0.70 … 1.25
	jitter := float64(mix(uint64(tick), uint64(id))%1000) / 1000.0
	return (8 + 6*jitter) * ramp
}

// PowerSnapshot is every server's sample this tick. A missing sample reads
// -1 and a corrupt one NaN; both rank last.
func (r *scriptReader) PowerSnapshot() ([]float64, bool) {
	r.snap = r.snap[:0]
	for id := cluster.ServerID(0); id < scriptDomains*scriptServersPerDomain; id++ {
		r.snap = append(r.snap, r.serverSample(id))
	}
	return r.snap, true
}

func (r *scriptReader) serverSample(id cluster.ServerID) float64 {
	if r.blackout(r.domainOf(id)) {
		return -1
	}
	h := mix(uint64(r.tick)+1e6, uint64(id))
	switch h % 41 {
	case 0:
		return -1 // missing sample
	case 1:
		return math.NaN() // corrupt sample
	}
	return serverWatts(r.tick, id)
}

// blackout: domain 3 has no data for the first 5 ticks (skip-no-data before
// any good sample exists).
func (r *scriptReader) blackout(dom int) bool { return dom == 3 && r.tick < 5 }

// stale: domain 5's samples stop refreshing for 30 ticks mid-run — long
// enough to pass through degraded mode into fail-safe and recover after.
func (r *scriptReader) stale(dom int) bool { return dom == 5 && r.tick >= 100 && r.tick < 130 }

func (r *scriptReader) GroupPower(ids []cluster.ServerID) (float64, bool) {
	dom := r.domainOf(ids[0])
	if r.blackout(dom) {
		return 0, false
	}
	tick := r.tick
	if r.stale(dom) {
		tick = 99 // frozen snapshot from the last healthy tick
	}
	// Domain 6 sees an occasional corrupt (NaN) aggregate.
	if dom == 6 && mix(uint64(tick), 77)%29 == 0 {
		return math.NaN(), true
	}
	total := 0.0
	for _, id := range ids {
		total += serverWatts(tick, id)
	}
	return total, true
}

// RangePower is GroupPower over lo..hi.
func (r *scriptReader) RangePower(lo, hi cluster.ServerID) (float64, bool) {
	r.span = r.span[:0]
	for id := lo; id <= hi; id++ {
		r.span = append(r.span, id)
	}
	return r.GroupPower(r.span)
}

func (r *scriptReader) GroupSampleTime(ids []cluster.ServerID) (sim.Time, bool) {
	tick := r.tick
	if r.stale(r.domainOf(ids[0])) {
		tick = 99
	}
	return sim.Time(tick) * sim.Time(sim.Minute), true
}

// flakyAPI fails every 13th call deterministically. The call order
// is part of the determinism contract: the failure pattern must land on the
// same (domain, server) pairs every run, or the digest moves.
type flakyAPI struct {
	frozen map[cluster.ServerID]bool
	calls  int
}

func (f *flakyAPI) call(id cluster.ServerID, unfreeze bool) error {
	f.calls++
	if f.calls%13 == 0 {
		return errors.New("injected API failure")
	}
	if unfreeze {
		if !f.frozen[id] {
			return errors.New("not frozen")
		}
		delete(f.frozen, id)
	} else {
		if f.frozen[id] {
			return errors.New("double freeze")
		}
		f.frozen[id] = true
	}
	return nil
}

func (f *flakyAPI) Freeze(id cluster.ServerID) error   { return f.call(id, false) }
func (f *flakyAPI) Unfreeze(id cluster.ServerID) error { return f.call(id, true) }

// scriptedDomains lays out the scenario's domains: contiguous blocks of
// scriptServersPerDomain server IDs, budgeted so the ramp crosses the freeze
// threshold.
func scriptedDomains() []Domain {
	doms := make([]Domain, scriptDomains)
	for d := range doms {
		servers := make([]cluster.ServerID, scriptServersPerDomain)
		for i := range servers {
			servers[i] = cluster.ServerID(d*scriptServersPerDomain + i)
		}
		doms[d] = Domain{
			Name:    fmt.Sprintf("dom%d", d),
			Servers: servers,
			BudgetW: float64(scriptServersPerDomain) * 10.5,
			Kr:      0.10,
		}
	}
	return doms
}

// runScenario drives the full scripted run and returns a fingerprint of
// everything observable: the normalized journal stream, each domain's
// statistics, and the final frozen sets on both sides of the API. A non-nil
// schedule moves every domain's budget and adds the OnBudgetChange call
// stream to the fingerprint.
func runScenario(t *testing.T, sel SelectionPolicy, schedule *BudgetSchedule) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Selection = sel
	cfg.SelectionSeed = 11
	cfg.Resilience.FailSafeAfter = 10
	reader := &scriptReader{}
	api := &flakyAPI{frozen: map[cluster.ServerID]bool{}}
	doms := scriptedDomains()
	for d := range doms {
		doms[d].Schedule = schedule
	}
	ctl, err := New(sim.NewEngine(), reader, api, cfg, doms)
	if err != nil {
		t.Fatal(err)
	}
	journal := obs.NewJournal(2 * scriptDomains * scriptTicks)
	ctl.Instrument(nil, journal)
	var b strings.Builder
	if schedule != nil {
		ctl.OnBudgetChange(func(ch BudgetChange) { fmt.Fprintf(&b, "%+v\n", ch) })
	}

	for tick := 0; tick < scriptTicks; tick++ {
		reader.tick = tick
		ctl.Step(sim.Time(tick) * sim.Time(sim.Minute))
	}

	for _, ev := range journal.Snapshot() {
		// Wall-clock fields are the only permitted run-to-run divergence.
		ev.TickMS = 0
		ev.APILatencyMS = 0
		fmt.Fprintf(&b, "%+v\n", ev)
	}
	for d := 0; d < scriptDomains; d++ {
		fmt.Fprintf(&b, "dom%d stats %+v frozen %d\n", d, ctl.Stats(d), ctl.FrozenCount(d))
	}
	sched := make([]int, 0, len(api.frozen))
	for id := range api.frozen {
		sched = append(sched, int(id))
	}
	sort.Ints(sched)
	fmt.Fprintf(&b, "api calls %d frozen %v\n", api.calls, sched)
	return b.String()
}

// The digests are the SHA-256 of runScenario's fingerprint, one per
// selection policy. A change that moves one has changed a control decision,
// an API call or a journal field; re-pin only when that is intended.
func TestScriptedScenarioPinned(t *testing.T) {
	want := map[SelectionPolicy]string{
		SelectHottest: "d1d84ccc49d489fde09ffdcaf8a718313aea493f05449dfefec1cb991583e21e",
		SelectColdest: "c8445df641e73385675b428d0b63f3acbd6a0ed948a6d383aec50f89d0c1e65f",
		SelectRandom:  "ccde2e91d673a80c159f48f5cd69e0b185d9828a18b18e5d2233b3d5254ce99a",
	}
	for _, sel := range []SelectionPolicy{SelectHottest, SelectColdest, SelectRandom} {
		t.Run(fmt.Sprintf("selection=%d", sel), func(t *testing.T) {
			fp := runScenario(t, sel, nil)
			if !strings.Contains(fp, "hold-failsafe") {
				t.Error("scenario never reached fail-safe; coverage regressed")
			}
			if !strings.Contains(fp, "skip-no-data") {
				t.Error("scenario never skipped on missing data; coverage regressed")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != want[sel] {
				t.Errorf("fingerprint digest %s, pinned %s", got, want[sel])
			}
		})
	}
}

// A domain with a non-nil but empty server list must be rejected at
// construction: it would divide by zero in the utilization math and can
// never host a frozen set.
func TestZeroServerDomainRejected(t *testing.T) {
	eng := sim.NewEngine()
	reader := uniformReader(2, 100)
	api := newFakeAPI()
	d := Domain{Name: "empty", Servers: []cluster.ServerID{}, BudgetW: 100, Kr: 0.10}
	if _, err := New(eng, reader, api, DefaultConfig(), []Domain{d}); err == nil {
		t.Fatal("domain with zero servers accepted")
	}
}

// TestBudgetMoveKeepsItsPlaceInTheJournal pins where a budget movement is
// announced inside the tick: after the reading is classified (the
// budget-change event carries the health the tick arrived at) and before the
// first API call (it carries the frozen count the tick started with). The
// ramped schedule moves every budget across the ticks where domain 3 gets its
// first sample (5) and domain 5 goes degraded (101), fail-safe (110) and
// recovers (130), so an announcement that moved to either side of the
// classification changes the digest.
func TestBudgetMoveKeepsItsPlaceInTheJournal(t *testing.T) {
	const base = float64(scriptServersPerDomain) * 10.5
	at := func(tick int) sim.Time { return sim.Time(tick) * sim.Time(sim.Minute) }
	schedule := &BudgetSchedule{
		Steps: []BudgetStep{
			{At: at(3), BudgetW: 0.95 * base},
			{At: at(98), BudgetW: 0.82 * base},
			{At: at(126), BudgetW: base},
		},
		RampFrac: 0.01,
	}
	fp := runScenario(t, SelectHottest, schedule)
	moves, notOK := 0, 0
	for _, line := range strings.Split(fp, "\n") {
		if strings.Contains(line, "Action:budget-change") {
			moves++
			if !strings.Contains(line, "Health:ok") {
				notOK++
			}
		}
	}
	if moves != 312 || notOK != 18 {
		t.Errorf("%d budget-change events, %d on a domain that is not ok; want 312 and 18", moves, notOK)
	}
	const want = "e5a6d0d112041c0c641ddccd0d1d26e506055b3aa9ae7809e91d526aae3df402"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != want {
		t.Errorf("fingerprint digest %s, pinned %s", got, want)
	}
}

// passAPI is a healthy scheduler that tallies, per domain and tick, which
// calls it received, so a test can name the passes a tick ran: unfreezes and
// freezes together are a swap, unfreezes alone a release, freezes alone a
// freeze.
type passAPI struct {
	froze, unfroze      [scriptDomains]int
	swap, release, grow int
	calls               int
}

func (a *passAPI) Freeze(id cluster.ServerID) error {
	a.froze[int(id)/scriptServersPerDomain]++
	return nil
}

func (a *passAPI) Unfreeze(id cluster.ServerID) error {
	a.unfroze[int(id)/scriptServersPerDomain]++
	return nil
}

// endTick folds the tick's per-domain tallies into the pass counts.
func (a *passAPI) endTick() {
	for d := range a.froze {
		f, u := a.froze[d], a.unfroze[d]
		switch {
		case f > 0 && u > 0:
			a.swap++
		case u > 0:
			a.release++
		case f > 0:
			a.grow++
		}
		a.calls += f + u
		a.froze[d], a.unfroze[d] = 0, 0
	}
}

// TestStepDoesNotAllocate is the tick's zero-allocation contract: once the
// per-domain scratch has grown to size, a Step that swaps, releases and
// freezes allocates nothing, under every selection policy and with a
// steady-state windowed hourly Et learning online. The API is healthy on
// purpose — a failing call allocates its error and its retry. The first 120
// scripted ticks (one period of the power ramp) are the warm-up, the second
// 120 are counted; under a ranked policy they take the boundary from the
// carried band and from the select over the whole domain, both.
func TestStepDoesNotAllocate(t *testing.T) {
	// An unbounded online estimator's bins grow as it learns.
	constantEt := func(*testing.T) EtEstimator { return ConstantEt(0.05) }
	// windowedEt is at steady state: every hour-of-day bin already holds its
	// 60-sample window, so each tick's Add overwrites instead of growing.
	windowedEt := func(t *testing.T) EtEstimator {
		et, err := NewWindowedHourlyEt(99, etDefault, etMinSamples, 60)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 24*60; m++ {
			et.Add(sim.Time(m)*sim.Time(sim.Minute), 0)
		}
		return et
	}
	for _, tc := range []struct {
		name string
		sel  SelectionPolicy
		et   func(*testing.T) EtEstimator
	}{
		{"hottest", SelectHottest, constantEt},
		{"coldest", SelectColdest, constantEt},
		{"random", SelectRandom, constantEt},
		{"windowed-hourly-et", SelectHottest, windowedEt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Selection = tc.sel
			cfg.SelectionSeed = 11
			cfg.Resilience.FailSafeAfter = 10
			reader := &scriptReader{}
			api := &passAPI{}
			doms := scriptedDomains()
			for d := range doms {
				doms[d].Et = tc.et(t)
			}
			ctl, err := New(sim.NewEngine(), reader, api, cfg, doms)
			if err != nil {
				t.Fatal(err)
			}
			// bandTicks sums the band's counters over the domains. period
			// records them as it starts, so after AllocsPerRun they hold the
			// counted period's start.
			bandTicks := func() (hits, fallbacks int) {
				for _, ds := range ctl.domains {
					hits += int(ds.boundary.hits)
					fallbacks += int(ds.boundary.fallbacks)
				}
				return hits, fallbacks
			}
			var hits0, fallbacks0 int
			tick := 0
			period := func() {
				hits0, fallbacks0 = bandTicks()
				*api = passAPI{}
				for i := 0; i < scriptTicks/2; i++ {
					reader.tick = tick
					ctl.Step(sim.Time(tick) * sim.Time(sim.Minute))
					api.endTick()
					tick++
				}
			}
			// The count is process-wide, and the process's first collection
			// allocates the GC's worker goroutines: collect once beforehand.
			// AllocsPerRun calls period once to warm up, then once counted.
			runtime.GC()
			allocs := testing.AllocsPerRun(1, period)
			if allocs != 0 {
				t.Errorf("%d steady ticks allocated %v objects, want 0", scriptTicks/2, allocs)
			}
			if api.swap == 0 || api.release == 0 || api.grow == 0 {
				t.Errorf("counted ticks ran %d swap, %d release and %d freeze passes; need some of each",
					api.swap, api.release, api.grow)
			}
			hits, fallbacks := bandTicks()
			hits, fallbacks = hits-hits0, fallbacks-fallbacks0
			if tc.sel != SelectRandom && (hits == 0 || fallbacks == 0) {
				t.Errorf("counted ticks took %d boundaries from the band and %d from the whole domain; need some of each",
					hits, fallbacks)
			}
			t.Logf("%d API calls: %d swap, %d release, %d freeze passes; %d band hits, %d fallbacks",
				api.calls, api.swap, api.release, api.grow, hits, fallbacks)
		})
	}
}
