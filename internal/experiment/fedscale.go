package experiment

import (
	"fmt"
	"io"
	"time"

	"repro/internal/federate"
	"repro/internal/sim"
)

// The federated half of the scale experiment: ROADMAP item 1's jump from
// one 100k-server DC to a million servers spread over eight simulated data
// centers, run through the two-level substrate (per-DC Ampere controllers
// under the federate coordinator). The figure of merit is the federated
// tick — one coordinated control step across every DC — whose wall time
// must stay under the 50 ms budget on the bench machine; the output table
// itself is deterministic and byte-identical at any worker fan-out.

// FedScaleConfig shapes the federated scale run.
type FedScaleConfig struct {
	Seed uint64
	// Family selects the geo-distributed scenario family (federate.Family).
	Family string
	// DCs × RowsPerDC 400-server rows define the fleet.
	DCs       int
	RowsPerDC int
	// Warmup precedes the measure window; both are whole minutes (epochs).
	Warmup  sim.Duration
	Measure sim.Duration
}

// DefaultFedScale is the acceptance configuration: 8 DCs × 313 rows =
// 1,001,600 servers on a follow-the-sun load.
func DefaultFedScale() FedScaleConfig {
	return FedScaleConfig{Seed: 1031, Family: "follow-the-sun", DCs: 8, RowsPerDC: 313,
		Warmup: 10 * sim.Minute, Measure: 30 * sim.Minute}
}

// FedScaleRow is one DC's measure-window outcome.
type FedScaleRow struct {
	DC        string
	Servers   int
	Placed    int64
	Completed int64
	// MeanUtil is the measure-window mean DC power over rated.
	MeanUtil float64
	// AllocRatio is the final coordinator allocation over the DC's base
	// budget — above 1 for sites the water-fill fed, below for donors.
	AllocRatio float64
	FrozenEnd  int
}

// FedScaleResult is the full run outcome. Wall-clock fields are excluded
// from FormatFedScale (stderr only, per DESIGN.md §7).
type FedScaleResult struct {
	Rows    []FedScaleRow
	Servers int
	Epochs  int
	// TickMean/TickMax profile the federated controller tick; WallSeconds
	// is the whole run.
	TickMean, TickMax time.Duration
	WallSeconds       float64
}

// RunFedScale builds the federation, runs warmup + measure, and reports
// per-DC outcomes.
func RunFedScale(cfg FedScaleConfig) (*FedScaleResult, error) {
	warmupE := int(cfg.Warmup / sim.Minute)
	measureE := int(cfg.Measure / sim.Minute)
	if measureE < 1 {
		return nil, fmt.Errorf("experiment: federated scale needs ≥1 measure epoch")
	}
	dcs, err := federate.Family(cfg.Family, cfg.DCs, cfg.RowsPerDC)
	if err != nil {
		return nil, err
	}
	fed, err := federate.New(federate.Config{
		Seed: cfg.Seed, DCs: dcs,
		Retention: 64,
	})
	if err != nil {
		return nil, err
	}
	wallStart := time.Now()
	if _, err := fed.Advance(warmupE); err != nil {
		return nil, err
	}
	// The tick profile should describe the steady state: the first tick's
	// one-time scratch growth lands in warmup, not in the reported max.
	fed.ResetTickStats()
	if _, err := fed.Advance(measureE); err != nil {
		return nil, err
	}
	wall := time.Since(wallStart).Seconds()

	res := &FedScaleResult{Servers: fed.Servers(), Epochs: warmupE + measureE, WallSeconds: wall}
	_, res.TickMean, res.TickMax = fed.TickStats()
	for i, dc := range fed.DCs {
		telem := fed.Telemetry(i)
		window := telem[warmupE:]
		rated := dc.Spec.RowRatedPowerW() * float64(dc.Spec.Rows)
		util := 0.0
		for _, t := range window {
			util += t.PowerW / rated
		}
		var placed0, completed0 int64
		if warmupE > 0 {
			placed0, completed0 = telem[warmupE-1].Placed, telem[warmupE-1].Completed
		}
		last := window[len(window)-1]
		res.Rows = append(res.Rows, FedScaleRow{
			DC:         dc.Name,
			Servers:    dc.Spec.TotalServers(),
			Placed:     last.Placed - placed0,
			Completed:  last.Completed - completed0,
			MeanUtil:   util / float64(len(window)),
			AllocRatio: fed.Allocation(i) / fed.BaseBudget(i),
			FrozenEnd:  last.Frozen,
		})
	}
	return res, nil
}

// FormatFedScale renders the deterministic columns only.
func FormatFedScale(w io.Writer, res *FedScaleResult) {
	fmt.Fprintf(w, "Federated scale: %d servers across %d DCs, two-level budget control\n",
		res.Servers, len(res.Rows))
	fmt.Fprintf(w, "  %-14s %9s %9s %10s %10s %10s %7s\n",
		"dc", "servers", "placed", "completed", "mean util", "alloc/base", "frozen")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-14s %9d %9d %10d %10.4f %10.4f %7d\n",
			r.DC, r.Servers, r.Placed, r.Completed, r.MeanUtil, r.AllocRatio, r.FrozenEnd)
	}
	fmt.Fprintf(w, "  (alloc/base > 1: the coordinator fed the site headroom; < 1: it donated)\n")
}

// FormatFedScaleTiming renders the wall-clock half — stderr only.
func FormatFedScaleTiming(w io.Writer, res *FedScaleResult) {
	fmt.Fprintf(w, "  [fedscale %d servers: %.1fs wall for %d epochs; federated tick mean %.1fms max %.1fms]\n",
		res.Servers, res.WallSeconds, res.Epochs,
		float64(res.TickMean.Microseconds())/1000, float64(res.TickMax.Microseconds())/1000)
}
