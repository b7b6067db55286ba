package experiment

import (
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestWriteSeriesCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteSeriesCSV(&sb, []string{"a", "b"}, []float64{1, 2, 3}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("got %d rows", len(records))
	}
	if records[0][0] != "a" || records[1][0] != "1" || records[1][1] != "10" {
		t.Errorf("rows: %v", records)
	}
	// Short column padded.
	if records[3][1] != "" {
		t.Errorf("padding missing: %v", records[3])
	}
	// Header/column mismatch rejected.
	if err := WriteSeriesCSV(&sb, []string{"a"}, nil, nil); err == nil {
		t.Error("mismatch accepted")
	}
}

func TestFigureCSVExports(t *testing.T) {
	var sb strings.Builder

	f1 := &Fig1Result{
		Rack: []stats.CDFPoint{{Value: 0.7, Frac: 0.5}},
		Row:  []stats.CDFPoint{{Value: 0.7, Frac: 0.5}},
		DC:   []stats.CDFPoint{{Value: 0.7, Frac: 0.5}},
	}
	if err := f1.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rack_value") {
		t.Errorf("fig1 csv:\n%s", sb.String())
	}

	sb.Reset()
	f4 := &Fig4Result{Series: []float64{0.8, 0.7}}
	if err := f4.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "power_frac") || !strings.Contains(sb.String(), "0.8") {
		t.Errorf("fig4 csv:\n%s", sb.String())
	}

	sb.Reset()
	f5 := &Fig5Result{Bands: []Fig5Band{{U: 0.1, P25: 1, P50: 2, P75: 3}}}
	if err := f5.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "f_p50") {
		t.Errorf("fig5 csv:\n%s", sb.String())
	}

	sb.Reset()
	f8 := &Fig8Result{Series: []float64{0.9, 0.95}}
	if err := f8.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	ser := &Series{ExpNorm: []float64{0.9}, CtrlNorm: []float64{0.95}, U: []float64{0.1}}
	if err := ser.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "freeze_ratio") {
		t.Errorf("series csv:\n%s", sb.String())
	}

	sb.Reset()
	f12 := &Fig12Result{ExpNorm: []float64{1}, CtrlNorm: []float64{1.05}}
	if err := f12.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
}
