package stats

import (
	"fmt"
	"math"
)

// LogHistogram accumulates positive values into logarithmically spaced
// buckets and answers quantile queries with bounded relative error. The
// interactive-service substrate records millions of request latencies into
// one; storing them individually for a p99.9 query would dominate memory.
type LogHistogram struct {
	*logIndex // the layout: immutable, shared by every Fresh copy
	counts    []int64
	n         int64
	sum       float64 // exact sum of recorded values (not bucket-quantized)
	under     int64   // values below min (counted at min)
	over      int64   // values above max (counted at max)
}

// logIndex is a histogram layout: the bucket formula
// int((ln v − logMin)·scale), clamped to the buckets, and a table-driven
// index that answers it exactly without a logarithm.
//
// edges[k] is the smallest float64 in [min, max) the formula puts in bucket
// k or above (max when there is none, so no step passes edges[buckets]).
// cells maps a value's IEEE bit pattern, shifted right by shift and offset by
// base, to the bucket of the smallest value in its cell. A cell is no wider
// than the narrowest bucket it meets, so it holds at most one edge above its
// first value, and index takes at most one step past the table's answer;
// newLogIndex halves the cells until that holds. Positive floats order as
// their bit patterns, which is what makes both tables exact.
type logIndex struct {
	min, max float64
	logMin   float64
	scale    float64 // buckets per unit of ln(v)
	edges    []float64
	cells    []int32
	shift    uint
	base     uint64
}

// NewLogHistogram covers [min, max] with the given number of buckets; min
// and max must be finite, min a normal float (at least 2^−1022) and less
// than max. Subnormal floats are evenly spaced, not logarithmically, so no
// cell width serves them.
func NewLogHistogram(min, max float64, buckets int) (*LogHistogram, error) {
	if !(min >= minNormal && max > min && max <= math.MaxFloat64) {
		return nil, fmt.Errorf("stats: log histogram range [%v, %v] invalid", min, max)
	}
	if buckets < 1 {
		return nil, fmt.Errorf("stats: log histogram needs at least one bucket, got %d", buckets)
	}
	return (&LogHistogram{logIndex: newLogIndex(min, max, buckets)}).Fresh(), nil
}

// Fresh returns an empty histogram with h's layout. It shares h's bucket
// index, which is immutable, so it costs the counts alone: an owner of
// several histograms of one layout builds the index once.
func (h *LogHistogram) Fresh() *LogHistogram {
	return &LogHistogram{logIndex: h.logIndex, counts: make([]int64, len(h.edges)-1)}
}

func newLogIndex(min, max float64, buckets int) *logIndex {
	x := &logIndex{
		min:    min,
		max:    max,
		logMin: math.Log(min),
		scale:  float64(buckets) / (math.Log(max) - math.Log(min)),
		edges:  make([]float64, buckets+1),
	}
	x.edges[0], x.edges[buckets] = min, max
	for k := 1; k < buckets; k++ {
		x.edges[k] = math.Max(x.edge(k), x.edges[k-1])
	}

	x.shift = cellShift(x.scale)
	for !x.fillCells() {
		x.shift-- // a cell of one float holds no edge above its first value
	}
	return x
}

// minNormal is the smallest normal float64, 2^−1022.
const minNormal = 0x1p-1022

// cellShift is the shift of 2^c cells per binade, c = ⌈log2 1/(g−1)⌉ for the
// bucket ratio g = e^(1/scale): a cell no wider than any bucket that starts
// in its binade.
func cellShift(scale float64) uint {
	c := math.Ceil(-math.Log2(math.Expm1(1 / scale)))
	return 52 - uint(math.Min(math.Max(c, 0), 52))
}

// fillCells builds the cell table at x.shift and reports whether every cell
// holds at most one edge above its first value. The rounding of the edges
// can make a bucket a few ulps narrower than the cell width cellShift
// derives from the exact bucket ratio; a false return asks for finer cells.
func (x *logIndex) fillCells() bool {
	buckets := len(x.edges) - 1
	x.base = math.Float64bits(x.min) >> x.shift
	x.cells = make([]int32, math.Float64bits(x.max)>>x.shift-x.base+1)
	i := 0
	for j := range x.cells {
		lo := math.Max(x.cellStart(j), x.min)
		for i < buckets-1 && lo >= x.edges[i+1] {
			i++
		}
		x.cells[j] = int32(i)
		if i+2 <= buckets && x.edges[i+2] < math.Min(x.cellStart(j+1), x.max) {
			return false
		}
	}
	return true
}

// cellStart is the first float of cell j: the smallest value whose bit
// pattern it takes.
func (x *logIndex) cellStart(j int) float64 {
	return math.Float64frombits((x.base + uint64(j)) << x.shift)
}

// bucket is the formula the index reproduces, for v in [min, max).
func (x *logIndex) bucket(v float64) int {
	i := int((math.Log(v) - x.logMin) * x.scale)
	return min(max(i, 0), len(x.edges)-2)
}

// edge returns the smallest float64 in [min, max) that bucket puts in bucket
// k or above, or max when there is none (0 < k < buckets). It starts at the
// exact-arithmetic answer, widens a bracket around it by doubling steps of
// ulps, and bisects the bracket's bit patterns.
func (x *logIndex) edge(k int) float64 {
	lo, hi := math.Float64bits(x.min), math.Float64bits(x.max) // bucket(min) = 0 < k; hi stands for max
	at := func(u uint64) bool { return x.bucket(math.Float64frombits(u)) >= k }
	g := math.Float64bits(math.Exp(x.logMin + float64(k)/x.scale))
	if g > lo && g < hi {
		if at(g) {
			hi = g
			for step := uint64(1); hi-lo > step; step *= 2 {
				if !at(hi - step) {
					lo = hi - step
					break
				}
				hi -= step
			}
		} else {
			lo = g
			for step := uint64(1); hi-lo > step; step *= 2 {
				if at(lo + step) {
					hi = lo + step
					break
				}
				lo += step
			}
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if at(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// index returns v's bucket, for v in [min, max): the table's answer for v's
// cell, stepped past the one edge the cell may hold below v. The step is a
// conditional move, not a branch.
func (x *logIndex) index(v float64) int {
	i := int(x.cells[math.Float64bits(v)>>x.shift-x.base])
	if v >= x.edges[i+1] {
		i++
	}
	return i
}

// Add records one value. Non-positive and non-finite values are ignored;
// values outside the range clamp to the edge buckets.
func (h *LogHistogram) Add(v float64) { h.AddBucket(v, h.Bucket(v)) }

// The markers Bucket returns for a value no bucket holds.
const (
	bucketNone  = -1 // not recorded: non-positive or non-finite
	bucketUnder = -2 // below min, counted at min
	bucketOver  = -3 // at or above max, counted at max
)

// Bucket returns where Add counts v: a bucket index, or a negative marker
// for a value below the range, above it, or not recorded at all. It reads
// only the layout, which is immutable and shared by every Fresh copy, so a
// caller may compute buckets on any goroutine and record them later with
// AddBucket into any histogram of the same layout.
func (x *logIndex) Bucket(v float64) int {
	switch {
	case !(v > 0 && v <= math.MaxFloat64):
		return bucketNone
	case v < x.min:
		return bucketUnder
	case v >= x.max:
		return bucketOver
	}
	return x.index(v)
}

// AddBucket records v in bucket k, which must be what Bucket(v) returns for
// h's layout: Add without the bucket lookup.
func (h *LogHistogram) AddBucket(v float64, k int) {
	switch {
	case k >= 0:
		h.counts[k]++
	case k == bucketUnder:
		h.under++
	case k == bucketOver:
		h.over++
	default:
		return
	}
	h.n++
	h.sum += v
}

// Merge adds o's recorded population into h. Both histograms must share the
// same range and bucket count; the service substrate keeps one histogram per
// client class × operation and merges on read to answer aggregate quantiles.
func (h *LogHistogram) Merge(o *LogHistogram) error {
	if o == nil {
		return nil
	}
	if h.min != o.min || h.max != o.max || len(h.counts) != len(o.counts) {
		return fmt.Errorf("stats: merging log histograms with different layouts ([%v,%v]×%d vs [%v,%v]×%d)",
			h.min, h.max, len(h.counts), o.min, o.max, len(o.counts))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.under += o.under
	h.over += o.over
	return nil
}

// Count returns the number of recorded values.
func (h *LogHistogram) Count() int64 { return h.n }

// Sum returns the exact sum of the recorded values (unlike Mean, which is
// quantized to bucket midpoints). Metric exposition needs it for the
// Prometheus summary `_sum` line.
func (h *LogHistogram) Sum() float64 { return h.sum }

// Quantile returns an estimate of the q-th quantile (q in [0, 1]): the
// geometric midpoint of the bucket containing the target rank. A q outside
// [0, 1] clamps to it; a NaN q, like an empty histogram, answers NaN.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.n-1))
	if rank < h.under {
		return h.min
	}
	cum := h.under
	for i, c := range h.counts {
		cum += c
		if rank < cum {
			lo := h.logMin + float64(i)/h.scale
			hi := h.logMin + float64(i+1)/h.scale
			return math.Exp((lo + hi) / 2)
		}
	}
	return h.max
}

// Mean returns the approximate mean using bucket midpoints.
func (h *LogHistogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	sum := float64(h.under) * h.min
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := h.logMin + float64(i)/h.scale
		hi := h.logMin + float64(i+1)/h.scale
		sum += float64(c) * math.Exp((lo+hi)/2)
	}
	sum += float64(h.over) * h.max
	return sum / float64(h.n)
}
