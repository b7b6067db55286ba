package experiment

import (
	"math"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Record a row's power trajectory from one simulation, convert it to a rate
// schedule, replay it in a fresh rig, and check the replayed power follows
// the recorded trace — the workflow for driving experiments from captured
// (or external) power traces.
func TestTraceRecordReplay(t *testing.T) {
	spec := stack.RowSpec(1, 160)
	servers := spec.TotalServers()

	// --- Record: a diurnal day on a single row.
	prod := workload.DefaultProduct("source", stack.JobsPerMinute(spec, 0.78, servers))
	prod.DiurnalAmplitude = 0.35
	prod.SurgeProb = 0 // keep the source smooth so the comparison is crisp
	src, err := stack.New(stack.Config{Seed: 1, Cluster: spec, Products: []workload.Product{prod}})
	if err != nil {
		t.Fatal(err)
	}
	src.StartBase()
	warmup, span := sim.Time(sim.Hour), sim.Time(12*sim.Hour)
	if err := src.Run(warmup + span); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.FromTSDB(src.DB, []string{monitor.SeriesRow(0)}, warmup, warmup+span, sim.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// --- Convert to a rate schedule and replay in a fresh rig with a
	// different seed (different jobs, same demand trajectory).
	sched, err := trace.RateSchedule(tr.Series(0), servers, spec, stack.MeanJobMinutes(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	replayProd := workload.Product{Name: "replay", Schedule: sched, ScheduleStart: warmup}
	dst, err := stack.New(stack.Config{Seed: 2, Cluster: spec, Products: []workload.Product{replayProd}})
	if err != nil {
		t.Fatal(err)
	}
	dst.StartBase()
	if err := dst.Run(warmup + span); err != nil {
		t.Fatal(err)
	}

	// --- Compare trajectories over the steady part (skip one mean job
	// duration of replay ramp-up: the schedule modulates arrivals, so
	// concurrency needs a little time to track).
	recorded := tr.Series(0)
	replayed := dst.DB.Values(monitor.SeriesRow(0), warmup, warmup+span-1)
	if len(replayed) != len(recorded) {
		t.Fatalf("replayed %d samples, recorded %d", len(replayed), len(recorded))
	}
	skip := 30
	var rel stats.Summary
	for i := skip; i < len(recorded); i++ {
		rel.Add(math.Abs(replayed[i]-recorded[i]) / recorded[i])
	}
	t.Logf("trace replay: mean relative error %.4f, max %.4f over %d minutes",
		rel.Mean(), rel.Max(), rel.N())
	if rel.Mean() > 0.03 {
		t.Errorf("mean relative error %.4f, want ≤ 3%%", rel.Mean())
	}
	// The replay must track the diurnal shape. Minute-level samples carry
	// independent Poisson noise in both runs, so correlate 15-minute means.
	smooth := func(xs []float64) []float64 {
		var out []float64
		for i := 0; i+15 <= len(xs); i += 15 {
			out = append(out, mean(xs[i:i+15]))
		}
		return out
	}
	r, err := stats.Pearson(smooth(recorded[skip:]), smooth(replayed[skip:]))
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.9 {
		t.Errorf("replayed trajectory correlation %.3f (15-min means), want ≥ 0.9", r)
	}
}
