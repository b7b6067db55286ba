// Package stats provides the statistical primitives the reproduction relies
// on: empirical distributions and percentiles, streaming summaries, Pearson
// correlation, ordinary least squares, and an AR(1) noise process used by the
// power and workload models.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count, mean, min, max and variance of a stream using
// Welford's algorithm. The zero value is ready to use.
type Summary struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasExtrema bool
}

// Add incorporates x into the summary. NaN values are ignored (they occur in
// failure-injection tests where the monitor emits bad samples).
func (s *Summary) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if !s.hasExtrema || x < s.min {
		s.min = x
	}
	if !s.hasExtrema || x > s.max {
		s.max = x
	}
	s.hasExtrema = true
}

// N returns the number of accumulated samples.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 with no samples.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String formats the summary for experiment reports.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f min=%.4f max=%.4f sd=%.4f",
		s.n, s.Mean(), s.Min(), s.Max(), s.StdDev())
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between order statistics. It copies and sorts its input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for data already sorted ascending.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDFPoint is one point of an empirical CDF: P(X ≤ Value) = Frac.
type CDFPoint struct {
	Value float64
	Frac  float64
}

// CDF returns the empirical cumulative distribution of xs evaluated at up to
// maxPoints evenly spaced ranks (all points when maxPoints ≤ 0 or exceeds the
// sample size). The result is suitable for printing a figure series.
func CDF(xs []float64, maxPoints int) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	pts := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := (i + 1) * n / maxPoints // 1-based rank
		pts = append(pts, CDFPoint{Value: sorted[idx-1], Frac: float64(idx) / float64(n)})
	}
	return pts
}

// Pearson returns the Pearson correlation coefficient of the paired samples.
// It returns an error when the lengths differ, fewer than two pairs exist, or
// either series has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: series lengths differ: %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return 0, errors.New("stats: need at least two pairs for correlation")
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// LinearFit holds the result of a least-squares line fit.
type LinearFit struct {
	Slope float64
	R2    float64
	N     int
}

// FitLineThroughOrigin fits y = Slope·x (no intercept), the form the paper
// uses for f(u) = kr·u.
func FitLineThroughOrigin(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: series lengths differ: %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return LinearFit{}, errors.New("stats: empty series")
	}
	var sxy, sxx, syy, sy float64
	for i := range xs {
		sxy += xs[i] * ys[i]
		sxx += xs[i] * xs[i]
		sy += ys[i]
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: x has zero norm")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, N: len(xs)}
	my := sy / float64(len(xs))
	var ssRes float64
	for i := range xs {
		r := ys[i] - slope*xs[i]
		ssRes += r * r
		d := ys[i] - my
		syy += d * d
	}
	if syy > 0 {
		fit.R2 = 1 - ssRes/syy
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// Diffs returns the first-order differences xs[i+1] − xs[i].
func Diffs(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// WindowMax reduces xs to the maximum of each consecutive window of size w,
// as in the paper's Fig 9 procedure ("a sequence of the maximum power for
// every k minutes"). Partial trailing windows are dropped.
func WindowMax(xs []float64, w int) []float64 {
	if w <= 0 {
		return nil
	}
	out := make([]float64, 0, len(xs)/w)
	for i := 0; i+w <= len(xs); i += w {
		m := xs[i]
		for _, v := range xs[i+1 : i+w] {
			if v > m {
				m = v
			}
		}
		out = append(out, m)
	}
	return out
}
