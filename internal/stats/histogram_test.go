package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

func TestLogHistogramValidation(t *testing.T) {
	if _, err := NewLogHistogram(0, 10, 10); err == nil {
		t.Error("min=0 accepted")
	}
	if _, err := NewLogHistogram(10, 10, 10); err == nil {
		t.Error("min=max accepted")
	}
	if _, err := NewLogHistogram(1, 10, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	// Subnormal floats are evenly spaced, so no cell width serves them.
	if _, err := NewLogHistogram(math.Nextafter(minNormal, 0), 1, 10); err == nil {
		t.Error("a subnormal min accepted")
	}
	if _, err := NewLogHistogram(minNormal, 1, 10); err != nil {
		t.Errorf("the smallest normal min refused: %v", err)
	}
}

func TestLogHistogramQuantileAccuracy(t *testing.T) {
	h, err := NewLogHistogram(1, 1e7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRNG(5)
	n := 100000
	vals := make([]float64, n)
	for i := range vals {
		v := math.Exp(r.NormFloat64()*1.2 + 5) // lognormal around e^5 ≈ 148
		vals[i] = v
		h.Add(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := vals[int(q*float64(n-1))]
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.02 {
			t.Errorf("q%.3f: got %v want %v (rel err %.3f)", q, got, want, rel)
		}
	}
	if h.Count() != int64(n) {
		t.Errorf("Count = %d", h.Count())
	}
	// Mean within a few percent.
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if rel := math.Abs(h.Mean()-sum/float64(n)) / (sum / float64(n)); rel > 0.03 {
		t.Errorf("Mean rel err %.3f", rel)
	}
}

func TestLogHistogramEdgeValues(t *testing.T) {
	h, err := NewLogHistogram(1, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-5)         // ignored
	h.Add(0)          // ignored
	h.Add(math.NaN()) // ignored
	if h.Count() != 0 {
		t.Fatalf("invalid values counted: %d", h.Count())
	}
	h.Add(0.5)  // underflow clamps to min
	h.Add(1000) // overflow clamps to max
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want clamp to min", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want clamp to max", got)
	}
}

func TestLogHistogramEmpty(t *testing.T) {
	h, err := NewLogHistogram(1, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(h.Quantile(0.5)) || !math.IsNaN(h.Mean()) {
		t.Error("empty histogram should answer NaN")
	}
}
