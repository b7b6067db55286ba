// Package trace records and replays power traces. The paper's design was
// driven by long-term power histories of production rows ("we monitor the
// power of all rows in our data center for a long time"); this package
// provides the equivalent artifact for the simulation: capture per-minute
// power series from a run (or load an externally produced CSV), and convert
// a power trace back into a per-minute arrival-rate schedule that steers a
// fresh simulation along the recorded trajectory. Traces are CSV so they can
// be exchanged with real monitoring exports.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

// Trace is a set of aligned, fixed-interval power series.
type Trace struct {
	// Interval between consecutive samples (the monitor's 1 minute).
	Interval sim.Duration
	// Start is the virtual timestamp of the first sample.
	Start sim.Time
	// Names labels the columns (e.g. "row/0").
	Names []string
	// Samples[i][j] is series j's value at time Start + i·Interval, watts.
	Samples [][]float64
}

// Len returns the number of samples per series.
func (t *Trace) Len() int { return len(t.Samples) }

// Series returns column j as a slice.
func (t *Trace) Series(j int) []float64 {
	out := make([]float64, len(t.Samples))
	for i, row := range t.Samples {
		out[i] = row[j]
	}
	return out
}

// SeriesByName returns the named column.
func (t *Trace) SeriesByName(name string) ([]float64, error) {
	for j, n := range t.Names {
		if n == name {
			return t.Series(j), nil
		}
	}
	return nil, fmt.Errorf("trace: no series %q", name)
}

// FromTSDB captures the named series from a time-series database over
// [from, to), which must be sampled exactly every interval (the monitor
// guarantees this).
func FromTSDB(db *tsdb.DB, names []string, from, to sim.Time, interval sim.Duration) (*Trace, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("trace: no series names")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("trace: non-positive interval %v", interval)
	}
	n := int(to.Sub(from) / interval)
	if n <= 0 {
		return nil, fmt.Errorf("trace: empty window [%v, %v)", from, to)
	}
	tr := &Trace{Interval: interval, Start: from, Names: append([]string(nil), names...)}
	cols := make([][]tsdb.Point, len(names))
	for j, name := range names {
		pts := db.Query(name, from, to-1)
		if len(pts) != n {
			return nil, fmt.Errorf("trace: series %q has %d samples in window, want %d (gaps or wrong interval)",
				name, len(pts), n)
		}
		cols[j] = pts
	}
	tr.Samples = make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(names))
		for j := range names {
			p := cols[j][i]
			want := from.Add(sim.Duration(i) * interval)
			if p.T != want {
				return nil, fmt.Errorf("trace: series %q sample %d at %v, want %v", names[j], i, p.T, want)
			}
			row[j] = p.V
		}
		tr.Samples[i] = row
	}
	return tr, nil
}

// WriteCSV writes the trace: a header of minute_ms plus series names, then
// one row per sample.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"time_ms"}, t.Names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, row := range t.Samples {
		rec := make([]string, 0, len(row)+1)
		at := t.Start.Add(sim.Duration(i) * t.Interval)
		rec = append(rec, strconv.FormatInt(int64(at), 10))
		for _, v := range row {
			rec = append(rec, strconv.FormatFloat(v, 'f', 3, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV (or produced externally with
// the same layout). The sample interval is inferred from the first two rows
// and must be constant.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(records) < 3 {
		return nil, fmt.Errorf("trace: need a header and at least two samples, got %d rows", len(records))
	}
	header := records[0]
	if len(header) < 2 || header[0] != "time_ms" {
		return nil, fmt.Errorf("trace: bad header %v", header)
	}
	tr := &Trace{Names: append([]string(nil), header[1:]...)}
	var prev sim.Time
	for i, rec := range records[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("trace: row %d has %d fields, want %d", i+1, len(rec), len(header))
		}
		ms, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i+1, err)
		}
		at := sim.Time(ms)
		switch i {
		case 0:
			tr.Start = at
		case 1:
			tr.Interval = at.Sub(tr.Start)
			if tr.Interval <= 0 {
				return nil, fmt.Errorf("trace: non-increasing timestamps")
			}
		default:
			if at.Sub(prev) != tr.Interval {
				return nil, fmt.Errorf("trace: irregular interval at row %d", i+1)
			}
		}
		prev = at
		row := make([]float64, len(rec)-1)
		for j, f := range rec[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d col %d: %w", i+1, j+1, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// ParseFloat accepts "NaN" and "Inf"; RateSchedule would make them NaN rates.
				return nil, fmt.Errorf("trace: row %d col %d: non-finite value %q", i+1, j+1, f)
			}
			row[j] = v
		}
		tr.Samples = append(tr.Samples, row)
	}
	return tr, nil
}

// RateSchedule converts one power series (watts, for a population of
// servers) into a per-minute arrival-rate schedule that reproduces the same
// power trajectory when replayed through the cluster's power model: the
// inverse of the steady-state calibration
//
//	P = n·(idle + (rated−idle)·util),  util = rate·meanDur·meanCPU/containers
//
// Values at or below the idle floor map to rate 0.
func RateSchedule(series []float64, servers int, spec cluster.Spec, meanDurMinutes, meanCPU float64) ([]float64, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("trace: non-positive server count %d", servers)
	}
	if meanDurMinutes <= 0 || meanCPU <= 0 {
		return nil, fmt.Errorf("trace: invalid workload parameters dur=%v cpu=%v", meanDurMinutes, meanCPU)
	}
	span := spec.RatedPowerW - spec.IdlePowerW
	if span <= 0 {
		return nil, fmt.Errorf("trace: spec has no active power span")
	}
	out := make([]float64, len(series))
	for i, watts := range series {
		perServer := watts / float64(servers)
		util := (perServer - spec.IdlePowerW) / span
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
		concurrent := util * float64(spec.Containers) / meanCPU
		out[i] = concurrent / meanDurMinutes * float64(servers)
	}
	return out, nil
}
