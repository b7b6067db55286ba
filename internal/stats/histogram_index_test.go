package stats

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// refBucket is the bucket formula Add evaluated with a logarithm per value
// before the index replaced it: the oracle the index must reproduce for
// every value in [min, max).
func refBucket(h *LogHistogram, v float64) int {
	i := int((math.Log(v) - h.logMin) * h.scale)
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// layouts is every histogram layout the repo constructs: the service's and
// the load harness's latencies, the scheduler's queue wait (ms, 30 days) and
// stretch, every obs registration, and the test layouts of this package and
// of obs.
var layouts = []struct {
	min, max float64
	buckets  int
}{
	{1, 60e6, 2400},
	{1, 30 * 24 * 3600 * 1000, 1200},
	{0.5, 1000, 1200},
	{1e-8, 10, 400},
	{1e-7, 10, 400},
	{1e-8, 1, 300},
	{1e-6, 3600, 400},
	{1, 1e9, 400},
	{1e-6, 10, 100},
	{1e-6, 100, 100},
	{1e-6, 10, 200},
	{1e-6, 10, 400},
	{1, 1e7, 2000},
	{1, 100, 10},
}

// The index puts every value where the formula does: ±4096 ulps around
// every edge (where a logarithm's rounding decides), both ends of the range,
// and a million values spread log-uniformly over it.
func TestIndexMatchesFormula(t *testing.T) {
	const ulps, spread = 4096, 1_000_000
	for _, l := range layouts {
		h, err := NewLogHistogram(l.min, l.max, l.buckets)
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		check := func(v float64) {
			if !(v >= l.min && v < l.max) || bad > 5 {
				return
			}
			if got, want := h.index(v), refBucket(h, v); got != want {
				bad++
				t.Errorf("[%v, %v]×%d: %v (bits %#x) indexed to bucket %d, the formula says %d",
					l.min, l.max, l.buckets, v, math.Float64bits(v), got, want)
			}
		}
		for _, e := range h.edges {
			u := math.Float64bits(e)
			for d := uint64(0); d <= ulps; d++ {
				check(math.Float64frombits(u + d))
				check(math.Float64frombits(u - d))
			}
		}
		check(l.min)
		check(math.Nextafter(l.max, 0))
		r := sim.NewRNG(uint64(l.buckets))
		lo, hi := math.Log(l.min), math.Log(l.max)
		for i := 0; i < spread; i++ {
			check(math.Exp(lo + r.Float64()*(hi-lo)))
		}
	}
}

// An edge is the first value of its bucket: the float just below it is in
// the bucket before.
func TestEdgesAreFirstValues(t *testing.T) {
	for _, l := range layouts {
		h, err := NewLogHistogram(l.min, l.max, l.buckets)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < l.buckets; k++ {
			e := h.edges[k]
			if e == l.max {
				continue // bucket k holds no float below max
			}
			if refBucket(h, e) < k || refBucket(h, math.Nextafter(e, 0)) >= k {
				t.Fatalf("[%v, %v]×%d: edge %d = %v is not where bucket %d starts", l.min, l.max, l.buckets, k, e, k)
			}
		}
	}
}

// Fresh copies share the index and nothing else.
func TestFreshSharesIndexNotCounts(t *testing.T) {
	h, err := NewLogHistogram(1, 60e6, 2400)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(50)
	f := h.Fresh()
	if f.logIndex != h.logIndex {
		t.Error("a Fresh copy built its own index")
	}
	if f.Count() != 0 || f.Sum() != 0 {
		t.Errorf("a Fresh copy holds %d values summing to %v", f.Count(), f.Sum())
	}
	f.Add(70)
	if err := h.Merge(f); err != nil || h.Count() != 2 || h.Sum() != 120 {
		t.Errorf("merging a Fresh copy: err %v, count %d, sum %v", err, h.Count(), h.Sum())
	}
}

func TestLogHistogramRejectsNonFiniteBounds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range [][2]float64{{nan, 10}, {1, nan}, {1, inf}, {inf, inf}, {-inf, 10}, {1e-300, inf}} {
		if _, err := NewLogHistogram(r[0], r[1], 10); err == nil {
			t.Errorf("range [%v, %v] accepted", r[0], r[1])
		}
	}
}

// Non-finite values are dropped like NaN, so one +Inf cannot poison the sum
// every later scrape reports.
func TestLogHistogramDropsNonFiniteValues(t *testing.T) {
	h, err := NewLogHistogram(1, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(5)
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	h.Add(math.NaN())
	h.Add(math.MaxFloat64) // finite: clamps to max
	if h.Count() != 2 || h.Sum() != 5+math.MaxFloat64 {
		t.Errorf("count %d, sum %v after 5, ±Inf, NaN and MaxFloat64; want 2 and %v", h.Count(), h.Sum(), 5+math.MaxFloat64)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want the clamp to max", got)
	}
}

// refAdd is Add as it was before Bucket and AddBucket split it: the oracle
// both recording paths are held to.
func refAdd(h *LogHistogram, v float64) {
	if !(v > 0 && v <= math.MaxFloat64) {
		return
	}
	h.n++
	h.sum += v
	switch {
	case v < h.min:
		h.under++
	case v >= h.max:
		h.over++
	default:
		h.counts[refBucket(h, v)]++
	}
}

// Add and AddBucket with a bucket another Fresh copy of the layout computed
// record every value alike, and as the formula did: the values no bucket
// holds, both ends of the range and every edge.
func TestAddBucketMatchesAdd(t *testing.T) {
	for _, l := range layouts {
		layout, err := NewLogHistogram(l.min, l.max, l.buckets)
		if err != nil {
			t.Fatal(err)
		}
		vals := []float64{0, math.Copysign(0, -1), -1, -l.min, math.NaN(), math.Inf(1), math.Inf(-1),
			l.min / 2, l.min, l.max, math.Nextafter(l.max, 0), 2 * l.max, math.MaxFloat64}
		vals = append(vals, layout.edges...)
		add, byBucket, ref := layout.Fresh(), layout.Fresh(), layout.Fresh()
		for _, v := range vals {
			add.Add(v)
			byBucket.AddBucket(v, layout.Bucket(v))
			refAdd(ref, v)
			if !reflect.DeepEqual(add, ref) || !reflect.DeepEqual(byBucket, ref) {
				t.Fatalf("[%v, %v]×%d: after %v, Add and AddBucket leave %d and %d values summing to %v and %v, the formula %d to %v",
					l.min, l.max, l.buckets, v, add.Count(), byBucket.Count(), add.Sum(), byBucket.Sum(), ref.Count(), ref.Sum())
			}
		}
	}
}

// Quantile clamps q to [0, 1] and answers NaN for a NaN q. A NaN q once fell
// through the clamps to int64(NaN·n), which is MinInt64 on amd64, and
// answered min.
func TestQuantileOutOfRange(t *testing.T) {
	h, err := NewLogHistogram(1, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2, 5, 20, 50} {
		h.Add(v)
	}
	q0, q1 := h.Quantile(0), h.Quantile(1)
	for _, c := range []struct {
		q, want float64
	}{
		{math.NaN(), math.NaN()},
		{-0.5, q0},
		{math.Inf(-1), q0},
		{1.5, q1},
		{math.Inf(1), q1},
	} {
		if got := h.Quantile(c.q); math.Float64bits(got) != math.Float64bits(c.want) && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// FuzzLogIndexMatchesFormula builds random layouts and holds each to the
// index's two claims: no cell holds two edges above its first value, so one
// step past the cell table's answer is enough, and that one step puts every
// value where the formula does, checked ±4 ulps around every edge and at
// both ends of the range. min and max are raw floats: a layout outside
// NewLogHistogram's domain is skipped, and so is one of more than 10^5
// buckets or whose cell table before any halving would pass 2^20 entries
// (4 MB), so no input makes a large allocation.
func FuzzLogIndexMatchesFormula(f *testing.F) {
	for _, l := range layouts {
		f.Add(l.min, l.max, uint32(l.buckets))
	}
	f.Add(0x1p-1022, math.MaxFloat64, uint32(100_000))
	f.Add(1.0, 1+1e-15, uint32(100_000)) // buckets narrower than an ulp
	f.Add(1.0, 2.0, uint32(128))
	f.Fuzz(func(t *testing.T, lo, hi float64, buckets uint32) {
		if buckets == 0 || buckets > 100_000 || !(lo >= minNormal && hi > lo && hi <= math.MaxFloat64) {
			return
		}
		scale := float64(buckets) / (math.Log(hi) - math.Log(lo))
		shift := cellShift(scale)
		if math.Float64bits(hi)>>shift-math.Float64bits(lo)>>shift >= 1<<20 {
			return
		}
		h, err := NewLogHistogram(lo, hi, int(buckets))
		if err != nil {
			t.Fatal(err)
		}
		// The edges are sorted, so a cell holds two edges above its first
		// value exactly when a neighbouring pair shares it with the lower
		// one above that value.
		cell := func(v float64) uint64 { return math.Float64bits(v) >> h.shift }
		for k := 2; k < int(buckets); k++ {
			if a, b := h.edges[k-1], h.edges[k]; b < hi && cell(a) == cell(b) && a > max(h.cellStart(int(cell(a)-h.base)), lo) {
				t.Fatalf("[%v, %v]×%d: edges %d and %d (%v, %v) share cell %d", lo, hi, buckets, k-1, k, a, b, cell(a)-h.base)
			}
		}
		check := func(v float64) {
			if !(v >= lo && v < hi) {
				return
			}
			if got, want := h.index(v), refBucket(h, v); got != want {
				t.Fatalf("[%v, %v]×%d: %v (bits %#x) indexed to bucket %d, the formula says %d",
					lo, hi, buckets, v, math.Float64bits(v), got, want)
			}
		}
		for _, e := range h.edges {
			u := math.Float64bits(e)
			for d := uint64(0); d <= 4; d++ {
				check(math.Float64frombits(u + d))
				check(math.Float64frombits(u - d))
			}
		}
		check(lo)
		check(math.Nextafter(hi, 0))
	})
}
