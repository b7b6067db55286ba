package experiment

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// The Format functions render each experiment's result the way the paper
// presents it — the same rows for tables, the same series (downsampled for
// readability) for figures. cmd/ampere-exp prints these through the
// experiment catalogue (catalog.go).

// FormatFig1 renders the utilization CDFs.
func FormatFig1(w io.Writer, r *Fig1Result) {
	fmt.Fprintf(w, "Fig 1: CDF of power utilization (normalized to provisioned power)\n")
	fmt.Fprintf(w, "  mean utilization: rack %.3f  row %.3f  dc %.3f\n", r.MeanRack, r.MeanRow, r.MeanDC)
	fmt.Fprintf(w, "  p99 utilization:  rack %.3f  row %.3f  dc %.3f\n", r.P99Rack, r.P99Row, r.P99DC)
	fmt.Fprintf(w, "  %-8s %10s %10s %10s\n", "CDF", "rack", "row", "dc")
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99, 0.999, 1.0} {
		fmt.Fprintf(w, "  %-8.3f %10.3f %10.3f %10.3f\n", q,
			cdfValueAt(r.Rack, q), cdfValueAt(r.Row, q), cdfValueAt(r.DC, q))
	}
}

// cdfValueAt returns the smallest value whose CDF fraction reaches q.
func cdfValueAt(pts []stats.CDFPoint, q float64) float64 {
	for _, p := range pts {
		if p.Frac >= q {
			return p.Value
		}
	}
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].Value
}

// FormatFig2 renders the row-power heatmap (one row per line, 10-minute
// buckets) and the correlation summary.
func FormatFig2(w io.Writer, r *Fig2Result) {
	fmt.Fprintf(w, "Fig 2: row power over the window (normalized to rated, 10-min means)\n")
	for i, s := range r.Series {
		fmt.Fprintf(w, "  row %d:", i)
		for j := 0; j+10 <= len(s); j += 10 {
			fmt.Fprintf(w, " %.2f", mean(s[j:j+10]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  pairwise correlations (minute deltas): %.3v\n", r.Correlations)
	fmt.Fprintf(w, "  fraction with |r| < 0.33: %.2f (paper: 0.80)\n", r.FracWeak)
}

// FormatFig4 renders the freeze decay curve.
func FormatFig4(w io.Writer, r *Fig4Result) {
	fmt.Fprintf(w, "Fig 4: mean power of frozen servers (normalized to rated)\n")
	fmt.Fprintf(w, "  min: ")
	for m := 0; m < len(r.Series); m += 5 {
		fmt.Fprintf(w, "%6d", m)
	}
	fmt.Fprintf(w, "\n  pow: ")
	for m := 0; m < len(r.Series); m += 5 {
		fmt.Fprintf(w, "%6.2f", r.Series[m])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  idle fraction %.2f; 90%% of the excess decayed after %d min (paper: ≈35)\n",
		r.IdleFrac, r.MinutesTo90)
}

// FormatFig5 renders the control-effect bands and the fitted kr.
func FormatFig5(w io.Writer, r *Fig5Result) {
	fmt.Fprintf(w, "Fig 5: effect of freezing ratio u on power change f(u)\n")
	fmt.Fprintf(w, "  %-6s %9s %9s %9s %5s\n", "u", "p25", "p50", "p75", "n")
	for _, b := range r.Bands {
		fmt.Fprintf(w, "  %-6.2f %+9.4f %+9.4f %+9.4f %5d\n", b.U, b.P25, b.P50, b.P75, b.N)
	}
	fmt.Fprintf(w, "  linear fit through origin: kr = %.4f (R² %.3f, %d samples)\n",
		r.Kr, r.R2, len(r.Samples))
}

// FormatFig7 renders the duration CDF.
func FormatFig7(w io.Writer, r *Fig7Result) {
	fmt.Fprintf(w, "Fig 7: CDF of batch job durations\n")
	fmt.Fprintf(w, "  mean %.1f min (paper: ≈9); P(≤2 min) = %.2f (paper: ≈0.40)\n",
		r.MeanMinutes, r.FracWithin2)
	fmt.Fprintf(w, "  %-10s %8s\n", "minutes", "CDF")
	for _, m := range []float64{1, 2, 5, 10, 20, 30, 50} {
		fmt.Fprintf(w, "  %-10.0f %8.3f\n", m, cdfFracAt(r.CDF, m))
	}
}

func cdfFracAt(pts []stats.CDFPoint, v float64) float64 {
	frac := 0.0
	for _, p := range pts {
		if p.Value <= v {
			frac = p.Frac
		} else {
			break
		}
	}
	return frac
}

// FormatFig8 renders the daily power trace as hourly means.
func FormatFig8(w io.Writer, r *Fig8Result) {
	fmt.Fprintf(w, "Fig 8: row power over 24 h (normalized to max, hourly means)\n  ")
	for h := 0; h+60 <= len(r.Series); h += 60 {
		fmt.Fprintf(w, "%.2f ", mean(r.Series[h:h+60]))
	}
	fmt.Fprintf(w, "\n  hourly swing: %.3f\n", r.HourlySwing)
}

// FormatFig9 renders the power-change CDFs.
func FormatFig9(w io.Writer, r *Fig9Result) {
	fmt.Fprintf(w, "Fig 9: CDF of power changes by time scale (normalized to budget)\n")
	fmt.Fprintf(w, "  %-8s %9s %9s %9s %9s\n", "scale", "p1", "p25", "p75", "p99")
	for _, s := range []int{1, 5, 20, 60} {
		pts := r.Scales[s]
		fmt.Fprintf(w, "  %-8s %+9.4f %+9.4f %+9.4f %+9.4f\n",
			fmt.Sprintf("%d-min", s),
			cdfValueAt(pts, 0.01), cdfValueAt(pts, 0.25), cdfValueAt(pts, 0.75), cdfValueAt(pts, 0.99))
	}
	fmt.Fprintf(w, "  1-min |Δ|: p99 %.4f (paper ≤ 0.025), max %.4f (paper ≈ 0.10)\n",
		r.P99Abs1Min, r.MaxAbs1Min)
}

// FormatTable2 renders Table 2.
func FormatTable2(w io.Writer, r *Table2Result) {
	fmt.Fprintf(w, "Table 2: controller effectiveness under light / heavy workload\n")
	fmt.Fprintf(w, "  %-12s %12s %12s %12s %12s\n", "", "light-exp", "light-ctrl", "heavy-exp", "heavy-ctrl")
	row := func(name string, le, lc, he, hc string) {
		fmt.Fprintf(w, "  %-12s %12s %12s %12s %12s\n", name, le, lc, he, hc)
	}
	f := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	pc := func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
	row("u_mean", pc(r.Light.UMean), "0%", pc(r.Heavy.UMean), "0%")
	row("u_max", pc(r.Light.UMax), "0%", pc(r.Heavy.UMax), "0%")
	row("P_mean", f(r.Light.PMeanExp), f(r.Light.PMeanCtrl), f(r.Heavy.PMeanExp), f(r.Heavy.PMeanCtrl))
	row("P_max", f(r.Light.PMaxExp), f(r.Light.PMaxCtrl), f(r.Heavy.PMaxExp), f(r.Heavy.PMaxCtrl))
	row("violations",
		fmt.Sprint(r.Light.ViolationsExp), fmt.Sprint(r.Light.ViolationsCtl),
		fmt.Sprint(r.Heavy.ViolationsExp), fmt.Sprint(r.Heavy.ViolationsCtl))
	fmt.Fprintf(w, "  (paper heavy: 1 violation with Ampere vs 321 without)\n")
}

// FormatFig10 renders the control timelines as hourly means.
func FormatFig10(w io.Writer, r *Table2Result) {
	fmt.Fprintf(w, "Fig 10: power and freezing ratio over 24 h (hourly means)\n")
	print := func(name string, ser Series) {
		fmt.Fprintf(w, "  [%s]\n", name)
		fmt.Fprintf(w, "    exp : ")
		for h := 0; h+60 <= len(ser.ExpNorm); h += 60 {
			fmt.Fprintf(w, "%.2f ", mean(ser.ExpNorm[h:h+60]))
		}
		fmt.Fprintf(w, "\n    ctrl: ")
		for h := 0; h+60 <= len(ser.CtrlNorm); h += 60 {
			fmt.Fprintf(w, "%.2f ", mean(ser.CtrlNorm[h:h+60]))
		}
		fmt.Fprintf(w, "\n    u   : ")
		for h := 0; h+60 <= len(ser.U); h += 60 {
			fmt.Fprintf(w, "%.2f ", mean(ser.U[h:h+60]))
		}
		fmt.Fprintln(w)
	}
	print("light", r.LightSer)
	print("heavy", r.HeavySer)
}

// FormatFig11 renders the latency comparison.
func FormatFig11(w io.Writer, r *Fig11Result) {
	fmt.Fprintf(w, "Fig 11: 99.9th percentile latency, power capping vs Ampere\n")
	fmt.Fprintf(w, "  %-12s %14s %14s %9s %12s %12s\n",
		"operation", "capping (µs)", "ampere (µs)", "ratio", "SLO-miss cap", "SLO-miss amp")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-12s %14.0f %14.0f %8.2f× %11.3f%% %11.3f%%\n",
			row.Op, row.P999CappingUS, row.P999AmpereUS, row.Inflation,
			row.SLOMissCapping*100, row.SLOMissAmpere*100)
	}
	fmt.Fprintf(w, "  capped server-intervals: %.1f%% under capping vs %.1f%% under Ampere\n",
		r.CappedServerFracCapping*100, r.CappedServerFracAmpere*100)
	fmt.Fprintf(w, "  (paper: capping almost doubles the 99.9th percentile on all operations)\n")
}

// FormatFig12 renders the power/throughput panels.
func FormatFig12(w io.Writer, r *Fig12Result) {
	fmt.Fprintf(w, "Fig 12: effect of Ampere on power and throughput (rO = %.2f)\n", r.RO)
	fmt.Fprintf(w, "  power (15-min means, normalized to the scaled budget):\n")
	fmt.Fprintf(w, "    exp : ")
	for i := 0; i+15 <= len(r.ExpNorm); i += 15 {
		fmt.Fprintf(w, "%.2f ", mean(r.ExpNorm[i:i+15]))
	}
	fmt.Fprintf(w, "\n    ctrl: ")
	for i := 0; i+15 <= len(r.CtrlNorm); i += 15 {
		fmt.Fprintf(w, "%.2f ", mean(r.CtrlNorm[i:i+15]))
	}
	fmt.Fprintf(w, "\n  control threshold ≈ %.3f\n", r.Threshold)
	fmt.Fprintf(w, "  throughput ratio per window: ")
	for _, v := range r.ThruRatio {
		fmt.Fprintf(w, "%.2f ", v)
	}
	fmt.Fprintf(w, "\n  rT: high-load %.3f, overall %.3f → GTPW %.3f\n",
		r.RTHighLoad, r.RTOverall, r.GTPW)
	fmt.Fprintf(w, "  (paper: rT ≈ 0.8 in the boxed high-load region, ≈ 0.95 over the 4 h)\n")
}

// FormatTable3 renders Table 3.
func FormatTable3(w io.Writer, r *Table3Result) {
	fmt.Fprintf(w, "Table 3: GTPW under different over-provision ratio and workload\n")
	fmt.Fprintf(w, "  %3s %6s %8s %8s %8s %8s %9s %6s\n",
		"#", "rO", "Pmean", "Pmax", "umean", "rT", "GTPW", "viol")
	for i, row := range r.Rows {
		fmt.Fprintf(w, "  %3d %6.2f %8.3f %8.3f %8.3f %8.3f %8.1f%% %6d\n",
			i+1, row.RO, row.PMean, row.PMax, row.UMean, row.RThru, row.GTPW*100, row.Violations)
	}
	fmt.Fprintf(w, "  (paper: GTPW peaks at moderate rO; 0.17 chosen as safe and effective)\n")
}
