package scheduler

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The tree's draw is the scan's draw: on a fleet with rows drained, frozen
// and failed to every degree, the same generator state yields the same row
// from pickRowByTree as from the weighted scan at unit weights, and leaves the
// generator where the scan leaves it.
func TestTreeRowChoiceMatchesScan(t *testing.T) {
	for _, rows := range []int{1, 4, 7, 33} {
		sp := cluster.DefaultSpec()
		sp.Rows, sp.RacksPerRow, sp.ServersPerRack = rows, 2, 5
		c, err := cluster.New(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := New(sim.NewEngine(), c, 1, nil)
		r := rand.New(rand.NewSource(int64(rows)))
		job := &workload.Job{CPU: 1}
		for round := 0; round < 400; round++ {
			// Churn the index: freeze, thaw, fail, repair; some rounds empty
			// whole rows, the last ones the whole fleet.
			for _, sv := range c.Servers {
				switch x := r.Float64(); {
				case round >= 390 || x < 0.1 || (round%7 == 0 && sv.Row%2 == 0):
					if !sv.Frozen() {
						_ = s.Freeze(sv.ID)
					}
				case x < 0.3 && sv.Frozen():
					_ = s.Unfreeze(sv.ID)
				case x < 0.33 && !sv.Failed():
					_ = s.FailServer(sv.ID)
				case x < 0.4 && sv.Failed():
					_ = s.RepairServer(sv.ID)
				}
			}
			total := 0
			for row := range s.avail {
				total += len(s.avail[row])
			}
			if s.availTree.total != total {
				t.Fatalf("%d rows round %d: tree total %d, index holds %d", rows, round, s.availTree.total, total)
			}
			for draw := 0; draw < 20; draw++ {
				seed := r.Uint64()
				s.rng = sim.NewRNG(seed)
				want, wantNext := s.pickWeightedRow(rowWeights{}), s.rng.Uint64()
				s.rng = sim.NewRNG(seed)
				got, _ := s.chooseRow(job)
				if gotNext := s.rng.Uint64(); got != want || gotNext != wantNext {
					t.Fatalf("%d rows round %d: tree chose row %d (next draw %x), scan row %d (next draw %x)",
						rows, round, got, gotNext, want, wantNext)
				}
			}
		}
	}
}

// find against the subtract-until-negative scan on the edges a uniform draw
// rarely lands on: x exactly on a prefix sum, just below one, and at total.
func TestRowTreeFindEdges(t *testing.T) {
	counts := []int32{0, 3, 0, 0, 5, 1, 0, 400, 0, 2, 0}
	tr := newRowTree(len(counts))
	for r, n := range counts {
		tr.add(r, n)
	}
	scan := func(x float64) int {
		for r, n := range counts {
			if x -= float64(n); x < 0 {
				return r
			}
		}
		return len(counts)
	}
	sum := 0.0
	xs := []float64{0, 0.5, math.Nextafter(float64(tr.total), 0), float64(tr.total)}
	for _, n := range counts {
		sum += float64(n)
		xs = append(xs, sum, math.Nextafter(sum, 0), math.Nextafter(sum, math.Inf(1)))
	}
	for _, x := range xs {
		if got, want := tr.find(x), scan(x); got != want {
			t.Errorf("find(%v) = row %d, scan gives %d", x, got, want)
		}
	}
}
