package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// refAR1 is the per-server noise process New used to build, kept as the
// oracle for the inline noise state: a first-order autoregressive Gaussian
// process
//
//	x[t] = phi·x[t−1] + e[t],  e ~ N(0, sigma²·(1−phi²))
//
// scaled so its stationary standard deviation is sigma, started at its
// stationary mean 0.
type refAR1 struct {
	phi, sigma, x float64
	rng           *rand.Rand
}

func newRefAR1(phi, sigma float64, rng *rand.Rand) *refAR1 {
	if phi <= -1 || phi >= 1 {
		panic("refAR1: phi must be in (-1, 1)")
	}
	return &refAR1{phi: phi, sigma: sigma, rng: rng}
}

func (a *refAR1) next() float64 {
	innov := a.sigma * math.Sqrt(1-a.phi*a.phi) * a.rng.NormFloat64()
	a.x = a.phi*a.x + innov
	return a.x
}

func TestAR1Stationarity(t *testing.T) {
	a := newRefAR1(0.7, 2.0, sim.NewRNG(9))
	var s stats.Summary
	for i := 0; i < 200000; i++ {
		s.Add(a.next())
	}
	if math.Abs(s.Mean()) > 0.1 {
		t.Errorf("AR1 mean %v, want ≈0", s.Mean())
	}
	if sd := s.StdDev(); math.Abs(sd-2) > 0.1 {
		t.Errorf("AR1 sd %v, want ≈2", sd)
	}
}

func TestAR1Autocorrelation(t *testing.T) {
	a := newRefAR1(0.8, 1.0, sim.NewRNG(10))
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = a.next()
	}
	r, err := stats.Pearson(xs[:n-1], xs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.8) > 0.05 {
		t.Errorf("lag-1 autocorrelation %v, want ≈0.8", r)
	}
}

func TestAR1InvalidPhiPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("phi=1 did not panic")
		}
	}()
	newRefAR1(1.0, 1.0, sim.NewRNG(1))
}

// The per-server objects New used to build — a refAR1 over its own
// sim.SubRNG, a second SubRNG for the jitter factor — are the oracle for the
// sample column and its inline ziggurat: every sample must equal theirs bit
// for bit. 2,000 draws per server cross the ziggurat's slow paths (about 3
// normals in 100). In the mixed case a server's consecutive draws come
// alternately from SamplePower and from a row-wide SamplePowers, as the
// monitor's sweep draws them: the stream belongs to the server, not to the
// path that draws it.
func TestSamplePowerMatchesPerServerAR1(t *testing.T) {
	const draws = 2000
	for _, mixed := range []bool{false, true} {
		for _, jitter := range []float64{0, 0.05} {
			for _, seed := range []uint64{1, 2, 0xfeedface} {
				sp := DefaultSpec()
				sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 2, 4, 10
				sp.NoisePhi, sp.NoiseSigmaW = 0.7, 3.5
				sp.RatedJitterFrac = jitter
				c, err := New(sp, seed)
				if err != nil {
					t.Fatal(err)
				}
				oracle := make([]*refAR1, len(c.Servers))
				for id, sv := range c.Servers {
					oracle[id] = newRefAR1(sp.NoisePhi, sp.NoiseSigmaW,
						sim.SubRNG(seed, fmt.Sprintf("server-noise-%d", id)))
					want := sp.RatedPowerW
					if jitter > 0 {
						jrng := sim.SubRNG(seed, fmt.Sprintf("server-jitter-%d", id))
						want *= 1 + (jrng.Float64()*2-1)*jitter
					}
					if sv.RatedW() != want {
						t.Fatalf("jitter %v seed %d server %d: rated %v, per-server RNG gives %v",
							jitter, seed, id, sv.RatedW(), want)
					}
					sv.Allocate(id%sp.Containers, float64(id%sp.Containers)/2)
				}
				got, perRow := make([]float64, len(c.Servers)), sp.ServersPerRow()
				for i := 0; i < draws; i++ {
					if mixed && i%2 == 1 {
						for lo := 0; lo < len(got); lo += perRow {
							c.SamplePowers(ServerID(lo), got[lo:lo+perRow])
						}
					} else {
						for id, sv := range c.Servers {
							got[id] = sv.SamplePower()
						}
					}
					for id, sv := range c.Servers {
						if want := sv.DrawW() + oracle[id].next(); math.Float64bits(got[id]) != math.Float64bits(want) {
							t.Fatalf("mixed %v jitter %v seed %d server %d draw %d: sampled %v, per-server AR1 gives %v",
								mixed, jitter, seed, id, i, got[id], want)
						}
					}
				}
				for id, st := range c.ExportState() {
					if st.NoiseW != oracle[id].x {
						t.Fatalf("server %d exports noise %v, AR1 holds %v", id, st.NoiseW, oracle[id].x)
					}
				}
			}
		}
	}
}

// liveDrawW is the draw formula the sample column caches: demand at full
// frequency, clamped to an active cap.
func liveDrawW(s *Server) float64 {
	d := s.DemandW()
	if s.capLevelW > 0 && d > s.capLevelW {
		return s.capLevelW
	}
	return d
}

// The column's drawW is a cache, so every writer of an input of the draw
// must refresh it. A seeded script of the five mutators on a jittered fleet
// checks, from construction on and after every operation, that each server's
// cached draw equals the live formula bit for bit — and RowDrawW, which sums
// the cache, the live formula's sum.
func TestCachedDrawMatchesLiveFormula(t *testing.T) {
	sp := DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 2, 4, 10
	sp.RatedJitterFrac = 0.05
	c, err := New(sp, 5)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step int, op string) {
		t.Helper()
		for _, sv := range c.Servers {
			if got, want := c.samples[sv.ID].drawW, liveDrawW(sv); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%s): server %d caches draw %v, live formula gives %v", step, op, sv.ID, got, want)
			}
		}
		for r := 0; r < c.Rows(); r++ {
			want := 0.0
			for _, sv := range c.Row(r) {
				want += liveDrawW(sv)
			}
			if got := c.RowDrawW(r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%s): row %d draws %v, live formula sums to %v", step, op, r, got, want)
			}
		}
	}
	check(0, "New")
	rng := sim.NewRNG(17)
	ops := map[string]int{}
	for step := 1; step <= 20000; step++ {
		sv := c.Servers[rng.Intn(len(c.Servers))]
		var op string
		switch rng.Intn(5) {
		case 0:
			op = "Allocate"
			n := rng.Intn(sv.FreeContainers() + 1)
			sv.Allocate(n, float64(n)*rng.Float64())
		case 1:
			op = "Release"
			n := rng.Intn(sv.Busy() + 1)
			sv.Release(n, min(float64(n)*rng.Float64(), sv.cpuLoad))
		case 2:
			op = "SetFailed"
			sv.SetFailed(rng.Intn(4) == 0)
		case 3:
			op = "ApplyCap"
			sv.ApplyCap(sv.IdleW()*0.8 + rng.Float64()*(sv.RatedW()-sv.IdleW()*0.8))
		case 4:
			op = "RemoveCap"
			sv.RemoveCap()
		}
		ops[op]++
		check(step, op)
	}
	if len(ops) != 5 {
		t.Errorf("the script ran %v, want all five mutators", ops)
	}
}

// Fleet-wide listeners hear every server and fire before the server's own;
// each group fires in registration order; servers nobody subscribed to cost
// the table nothing.
func TestSpeedListenerOrder(t *testing.T) {
	sp := testSpec()
	c, _ := New(sp, 1)
	var got []string
	note := func(tag string) func(*Server, float64) {
		return func(sv *Server, _ float64) { got = append(got, fmt.Sprintf("%s@%d", tag, sv.ID)) }
	}
	s3, s5 := c.Server(3), c.Server(5)
	s3.OnSpeedChange(note("a"))
	c.OnSpeedChange(note("fleet1"))
	s3.OnSpeedChange(note("b"))
	c.OnSpeedChange(note("fleet2"))
	s3.OnSpeedChange(note("c"))
	if n := len(c.serverListeners); n != 1 {
		t.Fatalf("listener table has %d entries after subscribing to one server, want 1", n)
	}

	toggle := func(sv *Server) {
		sv.Allocate(sp.Containers, float64(sp.Containers))
		sv.ApplyCap(200)
		sv.RemoveCap()
		sv.Release(sp.Containers, float64(sp.Containers))
	}
	expect := func(step string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: fired %v, want %v", step, got, want)
		}
		got = got[:0]
	}
	toggle(s3)
	both := []string{"fleet1@3", "fleet2@3", "a@3", "b@3", "c@3"}
	expect("subscribed server", append(both, both...)...)
	toggle(s5)
	expect("unsubscribed server", "fleet1@5", "fleet2@5", "fleet1@5", "fleet2@5")
}

// New allocates the fleet, not the servers: the slab, the pointer index and a
// handful of fixed objects (6 when measured), nothing per row or rack. It
// used to be about 7 allocations per server (Server, AR1, rand.Rand, source,
// the seed label and its byte copy).
func TestNewAllocatesPerFleetNotPerServer(t *testing.T) {
	sp := DefaultSpec()
	sp.Rows, sp.RatedJitterFrac = 10, 0.05 // 4,000 servers, both RNG paths
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(sp, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("New of %d servers made %v allocations, want at most 8", sp.TotalServers(), allocs)
	}
}

// A phi outside (−1, 1) is New's error, not a panic from the noise process
// and not NaN watts in every row total.
func TestNewRejectsNonStationaryNoise(t *testing.T) {
	for _, phi := range []float64{1, -1, 1.5, -3, math.NaN(), math.Inf(1)} {
		for _, sigma := range []float64{0, 2} {
			sp := DefaultSpec()
			sp.NoisePhi, sp.NoiseSigmaW = phi, sigma
			if c, err := New(sp, 1); err == nil {
				t.Errorf("phi %v sigma %v accepted; first sample %v", phi, sigma, c.Server(0).SamplePower())
			}
		}
	}
}
