package experiment

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// The determinism contract of the parallel fan-out: every unit builds a
// fully isolated rig from an explicit seed, so the rendered report must be
// byte-identical at any worker count. The fan-out is GOMAXPROCS wide, so the
// tests compare a run at GOMAXPROCS 1 (every unit inline, in order) with one
// at 4.

// atOneAndFour returns render's output at GOMAXPROCS 1 and at 4, restoring
// the setting afterwards.
func atOneAndFour[T any](render func() T) (serial, fanned T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial = render()
	runtime.GOMAXPROCS(4)
	return serial, render()
}

func TestSpreadOutputByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := SpreadConfig{Seed: 77, Rows: 4, RowServers: 80, TargetFrac: 0.70,
		Warmup: sim.Hour, Measure: 4 * sim.Hour}
	serial, parallel := atOneAndFour(func() string {
		rows, err := RunSpread(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		FormatSpread(&sb, rows)
		return sb.String()
	})
	if serial != parallel {
		t.Fatalf("spread report differs across worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

func TestAblationOutputByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := DefaultAblation()
	cfg.Controlled.RowServers = 80
	cfg.Warmup, cfg.Pretrain, cfg.Measure = sim.Hour, 2*sim.Hour, 2*sim.Hour
	serial, parallel := atOneAndFour(func() string {
		sweep := ablationSweeps[1] // rstable
		rows, err := RunAblation(cfg, sweep.variants)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		FormatAblation(&sb, sweep.title, rows)
		return sb.String()
	})
	if serial != parallel {
		t.Fatalf("ablation report differs across worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// newScrapedRig builds a small rig with its own registry, the isolation
// unit of the concurrency audit below.
func newScrapedRig(t *testing.T, seed uint64) (*stack.Stack, *obs.Registry) {
	t.Helper()
	spec := stack.RowSpec(2, 40)
	prod := workload.DefaultProduct("shared", stack.JobsPerMinute(spec, 0.7, spec.TotalServers()))
	rig, err := stack.New(stack.Config{Seed: seed, Cluster: spec, Products: []workload.Product{prod}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rig.Mon.Instrument(reg)
	rig.DB.Instrument(reg)
	rig.Sched.Instrument(reg)
	return rig, reg
}

// scrapeCounter fetches /metrics and returns the named un-labelled sample.
func scrapeCounter(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("unparsable %s sample %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("scrape has no %s sample:\n%s", name, body)
	return 0
}

// TestNoCrossRigMetricBleedUnderParallelScrape is the concurrency audit:
// one rig's /metrics endpoint is scraped in a loop while a sibling rig runs
// on the pool next to it (run under -race). Each rig owns its registry, so
// the scraped rig's counters must only ever reflect its own progress — a
// 30-minute rig reads 31 sweeps no matter how far its 60-minute sibling has
// gotten.
func TestNoCrossRigMetricBleedUnderParallelScrape(t *testing.T) {
	rigA, regA := newScrapedRig(t, 1)
	rigB, regB := newScrapedRig(t, 2)
	srv := httptest.NewServer(regA.Handler())
	defer srv.Close()

	spans := []sim.Duration{30 * sim.Minute, 60 * sim.Minute}
	rigs := []*stack.Stack{rigA, rigB}
	units := make([]runner.Unit[int64], 2)
	for i := range units {
		i := i
		units[i] = runner.Unit[int64]{Name: []string{"rig-a", "rig-b"}[i], Run: func() (int64, error) {
			rigs[i].StartBase()
			if err := rigs[i].Run(sim.Time(spans[i])); err != nil {
				return 0, err
			}
			return rigs[i].Mon.Sweeps(), nil
		}}
	}

	done := make(chan struct{})
	var sweeps []int64
	var runErr error
	go func() {
		defer close(done)
		sweeps, runErr = runner.Run(units, runner.Options{Workers: 2})
	}()

	// Scrape rig A for as long as the pool is busy. Its counter may lag its
	// final value mid-run but must never exceed it: anything above 31 would
	// be rig B's progress bleeding into A's registry.
	scrapes := 0
	for {
		select {
		case <-done:
		default:
			if v := scrapeCounter(t, srv.URL, "monitor_sweeps_total"); v > 31 {
				t.Fatalf("rig A scraped %v sweeps mid-run, max is 31 — cross-rig bleed", v)
			}
			scrapes++
			continue
		}
		break
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if scrapes == 0 {
		t.Error("pool finished before a single scrape landed")
	}

	// Final state: each registry reports exactly its own rig's sweep count
	// (t=0 sweep inclusive), and the two rigs differ.
	if sweeps[0] != 31 || sweeps[1] != 61 {
		t.Fatalf("sweep counts %v, want [31 61]", sweeps)
	}
	if v := scrapeCounter(t, srv.URL, "monitor_sweeps_total"); v != float64(sweeps[0]) {
		t.Errorf("rig A registry reads %v sweeps, monitor says %d", v, sweeps[0])
	}
	var sb strings.Builder
	if err := regB.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "monitor_sweeps_total 61") {
		t.Errorf("rig B registry does not read its own 61 sweeps")
	}
}
