package scheduler

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRowUtilizationTracking(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 2, 1, 2) // 2 rows × 2 servers × 16 containers
	s := New(eng, c, 1, nil)
	if u := s.RowUtilization(0); u != 0 {
		t.Fatalf("initial utilization %v", u)
	}
	// Place 8 containers on row 0 via Reserve.
	if err := s.Reserve(0, 8, 8); err != nil {
		t.Fatal(err)
	}
	if u := s.RowUtilization(0); math.Abs(u-0.25) > 1e-9 {
		t.Errorf("row 0 utilization %v, want 0.25", u)
	}
	if u := s.RowUtilization(1); u != 0 {
		t.Errorf("row 1 utilization %v", u)
	}
	// Job placement and completion also update the counter.
	before := s.RowUtilization(0) + s.RowUtilization(1)
	s.Submit(batchJob(1, 5*sim.Minute, 1))
	if s.RowUtilization(0)+s.RowUtilization(1) == before {
		t.Error("placement did not update utilization")
	}
	if err := eng.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if s.RowUtilization(0)+s.RowUtilization(1) != before {
		t.Error("completion did not update utilization")
	}
}

func TestConcentrateRowsPacks(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 3, 1, 2) // 3 rows × 2 servers, 32 containers/row
	s := New(eng, c, 1, nil)
	s.SetRowShaping(ConcentrateRows)
	perRow := map[int]int{}
	s.OnPlace(func(j *workload.Job, sv *cluster.Server) { perRow[sv.Row]++ })
	for i := int64(0); i < 32; i++ {
		s.Submit(batchJob(i, 30*sim.Minute, 1))
	}
	// All 32 jobs fit on one row and must land there.
	if perRow[0] != 32 || perRow[1] != 0 || perRow[2] != 0 {
		t.Errorf("concentrate spread jobs: %v", perRow)
	}
	// The 33rd job spills to the next row.
	s.Submit(batchJob(99, 30*sim.Minute, 1))
	if perRow[1]+perRow[2] != 1 {
		t.Errorf("overflow did not spill: %v", perRow)
	}
}

func TestBalanceRowsSpreads(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 2, 1, 2)
	s := New(eng, c, 1, nil)
	s.SetRowShaping(BalanceRows)
	var rows []int
	s.OnPlace(func(j *workload.Job, sv *cluster.Server) { rows = append(rows, sv.Row) })
	for i := int64(0); i < 20; i++ {
		s.Submit(batchJob(i, 30*sim.Minute, 1))
	}
	// Ties go to the lowest index, so the rows alternate starting at row 0.
	for i, r := range rows {
		if r != i%2 {
			t.Fatalf("balance placed job %d on row %d: %v", i, r, rows)
		}
	}
}

func TestRowChooserRespectsAffinity(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 3, 1, 2)
	s := New(eng, c, 1, nil)
	s.SetRowShaping(ConcentrateRows)
	s.SetProductWeights([][]float64{{0, 1, 1}}) // product 0 excluded from row 0
	for i := int64(0); i < 10; i++ {
		j := batchJob(i, 30*sim.Minute, 1)
		j.Product = 0
		s.Submit(j)
	}
	for _, sv := range c.Row(0) {
		if sv.Busy() != 0 {
			t.Fatalf("chooser violated affinity: server %d busy", sv.ID)
		}
	}
}

func TestRowShapingNames(t *testing.T) {
	for _, rs := range []RowShaping{Proportional, BalanceRows, ConcentrateRows} {
		if got, ok := ParseRowShaping(rs.String()); !ok || got != rs {
			t.Errorf("ParseRowShaping(%q) = %v, %v", rs.String(), got, ok)
		}
	}
	if _, ok := ParseRowShaping("random"); ok {
		t.Error("unknown shaping accepted")
	}
}
