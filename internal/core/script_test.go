package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
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
	tick    int
	domains [][]cluster.ServerID
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

func (r *scriptReader) ServerPower(id cluster.ServerID) (float64, bool) {
	if r.blackout(r.domainOf(id)) {
		return 0, false
	}
	h := mix(uint64(r.tick)+1e6, uint64(id))
	switch h % 41 {
	case 0:
		return 0, false // missing sample: ranks last
	case 1:
		return math.NaN(), true // corrupt sample: ranks last
	}
	return serverWatts(r.tick, id), true
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

func (r *scriptReader) GroupSampleTime(ids []cluster.ServerID) (sim.Time, bool) {
	tick := r.tick
	if r.stale(r.domainOf(ids[0])) {
		tick = 99
	}
	return sim.Time(tick) * sim.Time(sim.Minute), true
}

// flakyAPI fails every 13th call deterministically. Apply-phase call order
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

// runScenario drives the full scripted run and returns a fingerprint of
// everything observable: the normalized journal stream, each domain's
// statistics, and the final frozen sets on both sides of the API.
func runScenario(t *testing.T, sel SelectionPolicy) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Selection = sel
	cfg.SelectionSeed = 11
	cfg.Resilience.FailSafeAfter = 10
	reader := &scriptReader{}
	api := &flakyAPI{frozen: map[cluster.ServerID]bool{}}
	var doms []Domain
	for d := 0; d < scriptDomains; d++ {
		servers := make([]cluster.ServerID, scriptServersPerDomain)
		for i := range servers {
			servers[i] = cluster.ServerID(d*scriptServersPerDomain + i)
		}
		reader.domains = append(reader.domains, servers)
		doms = append(doms, Domain{
			Name:    fmt.Sprintf("dom%d", d),
			Servers: servers,
			BudgetW: float64(scriptServersPerDomain) * 10.5,
			Kr:      0.10,
		})
	}
	ctl, err := New(sim.NewEngine(), reader, api, cfg, doms)
	if err != nil {
		t.Fatal(err)
	}
	journal := obs.NewJournal(scriptDomains * scriptTicks)
	ctl.Instrument(nil, journal)

	for tick := 0; tick < scriptTicks; tick++ {
		reader.tick = tick
		ctl.Step(sim.Time(tick) * sim.Time(sim.Minute))
	}

	var b strings.Builder
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
		SelectColdest: "89ad837bcada46b2f79b19882e5e7d12b1118b8c1c7f1762bbb4d2f21ff8568e",
		SelectRandom:  "ccde2e91d673a80c159f48f5cd69e0b185d9828a18b18e5d2233b3d5254ce99a",
	}
	for _, sel := range []SelectionPolicy{SelectHottest, SelectColdest, SelectRandom} {
		t.Run(fmt.Sprintf("selection=%d", sel), func(t *testing.T) {
			fp := runScenario(t, sel)
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
	d := Domain{Name: "empty", Servers: []cluster.ServerID{}, BudgetW: 100}
	if _, err := New(eng, reader, api, DefaultConfig(), []Domain{d}); err == nil {
		t.Fatal("domain with zero servers accepted")
	}
}
