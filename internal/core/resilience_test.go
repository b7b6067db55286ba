package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestRetryBackoffRecovers drives the controller from the engine so the
// scheduled retries actually fire: the API fails for the first 30 s, then
// heals; the retry chain (5 s, 10 s, 20 s backoff) must land the freezes
// without waiting for the next tick.
func TestRetryBackoffRecovers(t *testing.T) {
	eng := sim.NewEngine()
	reader := &fakeReader{servers: map[cluster.ServerID]float64{}}
	for i := 0; i < 10; i++ {
		reader.servers[cluster.ServerID(i)] = 110 // 1100 W total, budget 1000
	}
	api := newFakeAPI()
	api.failFreezes = true

	cfg := DefaultConfig()
	d := Domain{Name: "grp", Servers: ids(10), BudgetW: 1000, Kr: 0.10, Et: ConstantEt(0.02)}
	ctl, err := New(eng, reader, api, cfg, []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	eng.At(sim.Time(30*sim.Second), "heal", func(sim.Time) { api.failFreezes = false })
	if err := eng.RunUntil(sim.Time(45 * sim.Second)); err != nil {
		t.Fatal(err)
	}

	st := ctl.Stats(0)
	if st.APIErrors == 0 {
		t.Fatal("no injected API errors observed")
	}
	if st.Retries == 0 {
		t.Fatalf("no retries attempted: %+v", st)
	}
	if st.RetrySuccesses == 0 {
		t.Fatalf("retry chain never succeeded after the API healed: %+v", st)
	}
	if got := ctl.FrozenCount(0); got == 0 || got != len(api.frozen) {
		t.Fatalf("frozen bookkeeping %d vs actual %d after recovery", got, len(api.frozen))
	}
}

// TestStopCancelsPendingRetries: a stopped controller is a crashed instance —
// the retries it armed before dying must not reach the scheduler afterwards,
// behind the back of whichever instance took over.
func TestStopCancelsPendingRetries(t *testing.T) {
	eng := sim.NewEngine()
	api := newFakeAPI()
	api.failFreezes = true
	d := Domain{Name: "grp", Servers: ids(10), BudgetW: 1000, Kr: 0.10, Et: ConstantEt(0.02)}
	ctl, err := New(eng, uniformReader(10, 110), api, DefaultConfig(), []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Step(0) // every freeze fails and arms a retry
	if ctl.Stats(0).APIErrors == 0 {
		t.Fatal("no injected API errors observed")
	}
	ctl.Stop()
	api.failFreezes = false
	calls := api.ops
	if err := eng.RunUntil(sim.Time(sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if api.ops != calls || len(api.frozen) != 0 {
		t.Errorf("stopped controller made %d API calls and froze %d servers", api.ops-calls, len(api.frozen))
	}
	if st := ctl.Stats(0); st.Retries != 0 {
		t.Errorf("stopped controller counted %d retries", st.Retries)
	}
}
