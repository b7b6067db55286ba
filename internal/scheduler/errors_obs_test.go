package scheduler

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestReserveOnFailedServerErrors(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 1, 1, 2)
	s := New(eng, c, 1, nil)

	if err := s.FailServer(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(0, 1, 1); err == nil {
		t.Error("reserve on failed server accepted, want error")
	}
	if err := s.Reserve(1, -3, 0); err == nil {
		t.Error("negative reserve accepted, want error")
	}
	if err := s.RepairServer(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(0, 1, 1); err != nil {
		t.Errorf("reserve after repair rejected: %v", err)
	}
}

// A reserve's CPU demand enters the server's draw, and so its row's: NaN
// poisoned both for the rest of the run, and a negative demand hid later
// load. Above the container count is legal (job CPU runs past 1 a container).
func TestReserveRejectsBadCPU(t *testing.T) {
	c := newTestCluster(t, 1, 1, 2)
	s := New(sim.NewEngine(), c, 1, nil)
	for _, cpu := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -50, -1e-9} {
		if err := s.Reserve(0, 1, cpu); err == nil {
			t.Errorf("Reserve(0, 1, %v) accepted, want an error", cpu)
		}
	}
	if got := c.Server(0).Busy(); got != 0 {
		t.Errorf("rejected reserves left %d containers busy", got)
	}
	if d, r := c.Server(0).DrawW(), c.RowDrawW(0); math.IsNaN(d) || math.IsNaN(r) {
		t.Errorf("draw %v, row draw %v after rejected reserves", d, r)
	}
	if err := s.Reserve(1, 1, 1.5); err != nil {
		t.Errorf("Reserve(1, 1, 1.5): %v", err)
	}
	if err := s.Reserve(1, 0, 0); err != nil {
		t.Errorf("Reserve(1, 0, 0): %v", err)
	}
}

// scrape renders the registry's Prometheus exposition.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStatsCountersOnScrape pins the "scrape and JSON API can never
// disagree" invariant to the counters that used to be JSON-only: Queued and
// Overflowed.
func TestStatsCountersOnScrape(t *testing.T) {
	eng := sim.NewEngine()
	c := newTestCluster(t, 2, 1, 1) // 2 rows × 1 server × 16 containers
	s := New(eng, c, 1, nil)
	reg := obs.NewRegistry()
	s.Instrument(reg)

	// Overflowed: product 0 prefers row 0 only; fill row 0, then submit.
	s.SetProductWeights([][]float64{{1, 0}})
	if err := s.Reserve(0, c.Spec.Containers, 0); err != nil {
		t.Fatal(err)
	}
	j := batchJob(2, 30*sim.Minute, 1)
	j.Product = 0
	s.Submit(j)

	// Queued: both rows full.
	if err := s.Reserve(1, c.Spec.Containers-1, 0); err != nil {
		t.Fatal(err)
	}
	s.Submit(batchJob(3, 30*sim.Minute, 1))

	st := s.Stats()
	if st.Rejected != 0 || st.Overflowed != 1 || st.Queued != 1 {
		t.Fatalf("stats = %+v, want Overflowed/Queued 1 and nothing rejected", st)
	}
	text := scrape(t, reg)
	for _, want := range []string{
		"scheduler_jobs_overflowed_total 1",
		"scheduler_jobs_queued_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
