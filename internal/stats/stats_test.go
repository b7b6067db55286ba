package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSummary(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Population sd is 2; unbiased variance = 32/7.
	if v := s.Variance(); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v", v)
	}
}

func TestSummaryIgnoresNaN(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(math.NaN())
	s.Add(3)
	if s.N() != 2 || s.Mean() != 2 {
		t.Errorf("NaN not ignored: n=%d mean=%v", s.N(), s.Mean())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty slice should be NaN")
	}
	// Interpolation: p40 of {10,20,30,40,50} lies between 20 and 30.
	if got := Percentile([]float64{10, 20, 30, 40, 50}, 40); math.Abs(got-26) > 1e-9 {
		t.Errorf("interpolated p40 = %v, want 26", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	pts := CDF(xs, 0)
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Value != 1 || pts[0].Frac != 0.25 {
		t.Errorf("first point %+v", pts[0])
	}
	if pts[3].Value != 4 || pts[3].Frac != 1 {
		t.Errorf("last point %+v", pts[3])
	}
	// Downsampled CDF still ends at (max, 1).
	pts = CDF(xs, 2)
	if len(pts) != 2 || pts[1].Frac != 1 || pts[1].Value != 4 {
		t.Errorf("downsampled CDF = %+v", pts)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation: r=%v err=%v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil || math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation: r=%v err=%v", r, err)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero-variance series not rejected")
	}
}

func TestPearsonIndependentNearZero(t *testing.T) {
	r := sim.NewRNG(3)
	n := 5000
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = r.NormFloat64()
	}
	c, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c) > 0.05 {
		t.Errorf("independent series correlation %v", c)
	}
}

func TestFitLineThroughOrigin(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2.1, 3.9, 6.1, 8.0}
	fit, err := FitLineThroughOrigin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.05 {
		t.Errorf("slope = %v, want ≈2", fit.Slope)
	}
	if _, err := FitLineThroughOrigin([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("zero-norm x not rejected")
	}
}

func TestDiffsAndWindowMax(t *testing.T) {
	d := Diffs([]float64{1, 4, 2, 2})
	want := []float64{3, -2, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Diffs = %v", d)
		}
	}
	if Diffs([]float64{1}) != nil {
		t.Error("Diffs of single element should be nil")
	}
	w := WindowMax([]float64{1, 5, 2, 3, 9, 0, 7}, 2) // windows {1,5},{2,3},{9,0}; 7 dropped
	wantW := []float64{5, 3, 9}
	if len(w) != 3 {
		t.Fatalf("WindowMax = %v", w)
	}
	for i := range wantW {
		if w[i] != wantW[i] {
			t.Fatalf("WindowMax = %v", w)
		}
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v1 <= v2 && v1 >= sorted[0] && v2 <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: CDF fractions are non-decreasing and end at exactly 1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, mp uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		pts := CDF(xs, int(mp))
		if len(xs) == 0 {
			return pts == nil
		}
		prevF, prevV := 0.0, math.Inf(-1)
		for _, p := range pts {
			if p.Frac < prevF || p.Value < prevV {
				return false
			}
			prevF, prevV = p.Frac, p.Value
		}
		return pts[len(pts)-1].Frac == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
