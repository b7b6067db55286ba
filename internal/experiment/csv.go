package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/stats"
)

// WriteSeriesCSV writes aligned columns under the given headers: one row per
// index, shorter columns padded with empty cells. Figure results use it to
// export plot-ready data.
func WriteSeriesCSV(w io.Writer, headers []string, cols ...[]float64) error {
	if len(headers) != len(cols) {
		return fmt.Errorf("experiment: %d headers for %d columns", len(headers), len(cols))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	n := 0
	for _, c := range cols {
		if len(c) > n {
			n = len(c)
		}
	}
	rec := make([]string, len(cols))
	for i := 0; i < n; i++ {
		for j, c := range cols {
			if i < len(c) {
				rec[j] = strconv.FormatFloat(c[i], 'g', 8, 64)
			} else {
				rec[j] = ""
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSV exports one plot-ready file per figure panel.

// WriteCSV exports Fig 1's three CDFs side by side (value columns per level
// with their shared rank column omitted; each level is a value/cdf pair).
func (r *Fig1Result) WriteCSV(w io.Writer) error {
	rack, rackF := splitCDF(r.Rack)
	row, rowF := splitCDF(r.Row)
	dc, dcF := splitCDF(r.DC)
	return WriteSeriesCSV(w,
		[]string{"rack_value", "rack_cdf", "row_value", "row_cdf", "dc_value", "dc_cdf"},
		rack, rackF, row, rowF, dc, dcF)
}

func splitCDF(pts []stats.CDFPoint) (vals, fracs []float64) {
	vals = make([]float64, len(pts))
	fracs = make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Value
		fracs[i] = p.Frac
	}
	return vals, fracs
}

// WriteCSV exports Fig 8's minute series.
func (r *Fig8Result) WriteCSV(w io.Writer) error {
	minutes := make([]float64, len(r.Series))
	for i := range minutes {
		minutes[i] = float64(i)
	}
	return WriteSeriesCSV(w, []string{"minute", "power_norm"}, minutes, r.Series)
}

// WriteCSV exports a Fig 10 scenario timeline.
func (s *Series) WriteCSV(w io.Writer) error {
	minutes := make([]float64, len(s.ExpNorm))
	for i := range minutes {
		minutes[i] = float64(i)
	}
	return WriteSeriesCSV(w, []string{"minute", "exp_norm", "ctrl_norm", "freeze_ratio"},
		minutes, s.ExpNorm, s.CtrlNorm, s.U)
}

// WriteCSV exports Fig 12's power panel plus the windowed throughput ratio.
func (r *Fig12Result) WriteCSV(w io.Writer) error {
	minutes := make([]float64, len(r.ExpNorm))
	for i := range minutes {
		minutes[i] = float64(i)
	}
	return WriteSeriesCSV(w, []string{"minute", "exp_norm", "ctrl_norm"},
		minutes, r.ExpNorm, r.CtrlNorm)
}

// WriteCSV exports Fig 4's decay curve.
func (r *Fig4Result) WriteCSV(w io.Writer) error {
	minutes := make([]float64, len(r.Series))
	for i := range minutes {
		minutes[i] = float64(i)
	}
	return WriteSeriesCSV(w, []string{"minute", "power_frac"}, minutes, r.Series)
}

// WriteCSV exports Fig 5's quartile bands.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	n := len(r.Bands)
	u := make([]float64, n)
	p25 := make([]float64, n)
	p50 := make([]float64, n)
	p75 := make([]float64, n)
	for i, b := range r.Bands {
		u[i], p25[i], p50[i], p75[i] = b.U, b.P25, b.P50, b.P75
	}
	return WriteSeriesCSV(w, []string{"u", "f_p25", "f_p50", "f_p75"}, u, p25, p50, p75)
}
