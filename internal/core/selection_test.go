package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func newSelectionController(t *testing.T, sel SelectionPolicy, reader PowerReader, api FreezeAPI) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Selection = sel
	cfg.SelectionSeed = 7
	d := Domain{Name: "g", Servers: ids(10), BudgetW: 1000, Kr: 0.10, Et: ConstantEt(0.05)}
	ctl, err := New(sim.NewEngine(), reader, api, cfg, []Domain{d})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func gradientReader() *fakeReader {
	// Server i draws 80 + 5i watts: total 1025 → p = 1.025.
	f := &fakeReader{servers: map[cluster.ServerID]float64{}}
	for i := 0; i < 10; i++ {
		f.servers[cluster.ServerID(i)] = 80 + 5*float64(i)
	}
	return f
}

func TestSelectColdestFreezesLowPowerServers(t *testing.T) {
	api := newFakeAPI()
	ctl := newSelectionController(t, SelectColdest, gradientReader(), api)
	ctl.Step(0)
	if len(api.frozen) == 0 {
		t.Fatal("nothing frozen")
	}
	for id := range api.frozen {
		if id >= cluster.ServerID(len(api.frozen)) {
			t.Errorf("coldest policy froze server %d (power-ordered ids)", id)
		}
	}
}

func TestSelectHottestFreezesHighPowerServers(t *testing.T) {
	api := newFakeAPI()
	ctl := newSelectionController(t, SelectHottest, gradientReader(), api)
	ctl.Step(0)
	n := len(api.frozen)
	if n == 0 {
		t.Fatal("nothing frozen")
	}
	for id := range api.frozen {
		if id < cluster.ServerID(10-n) {
			t.Errorf("hottest policy froze server %d of 10 with %d frozen", id, n)
		}
	}
}

// corruptSnapshot serves fakeReader's samples with one server's snapshot
// entry corrupted, leaving the group power intact: v replaces the sample, or,
// with cut, the snapshot ends just before the server.
type corruptSnapshot struct {
	*fakeReader
	id  cluster.ServerID
	v   float64
	cut bool
}

func (r corruptSnapshot) PowerSnapshot() ([]float64, bool) {
	vals, ok := r.fakeReader.PowerSnapshot()
	if r.cut {
		return vals[:r.id], ok
	}
	vals[r.id] = r.v
	return vals, ok
}

// TestMissingSampleRanksLastUnderEveryOrder: a server whose sample is NaN,
// negative or missing from the snapshot is the last a ranked policy freezes,
// hottest-first and coldest-first alike, wherever its real power would have
// placed it. On gradientReader power rises with the ID, so the policy's
// preference over the other servers is an ID order.
func TestMissingSampleRanksLastUnderEveryOrder(t *testing.T) {
	for _, sel := range []SelectionPolicy{SelectHottest, SelectColdest} {
		for _, id := range []cluster.ServerID{0, 9} {
			for _, bad := range []struct {
				name string
				v    float64
				cut  bool
			}{{"nan", math.NaN(), false}, {"negative", -5, false}, {"missing", 0, true}} {
				if bad.cut && id != 9 {
					continue // only the last ID can fall off the end
				}
				t.Run(fmt.Sprintf("%v/server%d/%s", sel, id, bad.name), func(t *testing.T) {
					api := newFakeAPI()
					reader := corruptSnapshot{fakeReader: gradientReader(), id: id, v: bad.v, cut: bad.cut}
					newSelectionController(t, sel, reader, api).Step(0)
					n := len(api.frozen)
					if n == 0 || n >= 9 {
						t.Fatalf("%d of 10 frozen; the test needs some but not all of the rest", n)
					}
					var want []cluster.ServerID
					for i := range 10 {
						other := cluster.ServerID(i)
						if sel == SelectHottest {
							other = cluster.ServerID(9 - i)
						}
						if other != id && len(want) < n {
							want = append(want, other)
						}
					}
					for _, w := range want {
						if !api.frozen[w] {
							t.Errorf("froze %v, want %v: the corrupt server %d ranked ahead", api.frozen, want, id)
							break
						}
					}
				})
			}
		}
	}
}

func TestSelectRandomIsDeterministicPerSeed(t *testing.T) {
	run := func() map[cluster.ServerID]bool {
		api := newFakeAPI()
		ctl := newSelectionController(t, SelectRandom, gradientReader(), api)
		ctl.Step(0)
		return api.frozen
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("frozen sets %v vs %v", a, b)
	}
	for id := range a {
		if !b[id] {
			t.Fatalf("random selection not reproducible: %v vs %v", a, b)
		}
	}
}

func TestSelectionPolicyString(t *testing.T) {
	if SelectHottest.String() != "hottest" || SelectColdest.String() != "coldest" ||
		SelectRandom.String() != "random" {
		t.Error("policy names wrong")
	}
	if SelectionPolicy(99).String() == "" {
		t.Error("unknown policy has empty name")
	}
}
