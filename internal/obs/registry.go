package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing metric value. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by d; negative deltas are ignored (counters
// never go down).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric value that can move in both directions. The zero value
// reads 0 and is ready to use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates a positive-valued distribution (latencies,
// durations) into logarithmic buckets and renders as a Prometheus summary:
// p50/p90/p99/p99.9 quantile lines plus exact _sum and _count. Observe is
// safe for concurrent use.
type Histogram struct {
	mu sync.Mutex
	h  *stats.LogHistogram
}

// Observe records one value. Non-positive and NaN values are dropped, as in
// stats.LogHistogram.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Count()
}

// Quantile returns the q-th quantile estimate (NaN before any observation,
// and for a NaN q).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Quantile(q)
}

// snapshot returns the rendered quantiles, sum and count in one lock hold.
func (h *Histogram) snapshot(qs []float64) (vals []float64, sum float64, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	vals = make([]float64, len(qs))
	for i, q := range qs {
		vals[i] = h.h.Quantile(q)
	}
	return vals, h.h.Sum(), h.h.Count()
}

// summaryQuantiles are the quantile lines rendered for every Histogram.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// Emit reports one sample of a collector-backed metric family.
type Emit func(labelValues []string, value float64)

// child is one (label-values → metric) binding inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one metric name: its metadata plus either static children or a
// scrape-time collector.
type family struct {
	name       string
	help       string
	typ        MetricType
	labelNames []string

	// Histogram families carry the bucket layout for lazily created
	// children, and an empty histogram of it they are Fresh copies of.
	histMin, histMax float64
	histBuckets      int
	histProto        *stats.LogHistogram

	mu       sync.RWMutex
	children map[string]*child
	keys     []string // insertion-ordered child keys, sorted at render
	collect  func(Emit)
}

func (f *family) child(labelValues []string) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := labelKey(labelValues)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), labelValues...)}
	switch f.typ {
	case TypeCounter:
		c.counter = &Counter{}
	case TypeGauge:
		c.gauge = &Gauge{}
	case TypeSummary:
		c.hist = &Histogram{h: f.histProto.Fresh()}
	}
	f.children[key] = c
	f.keys = append(f.keys, key)
	return c
}

func labelKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	var b bytes.Buffer
	b.Grow(n)
	for i, v := range values {
		if i > 0 {
			b.WriteByte(0xff) // cannot appear inside UTF-8 text
		}
		b.WriteString(v)
	}
	return b.String()
}

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4). Registration methods are idempotent:
// asking for an existing name with the same shape returns the same metric,
// so packages can be instrumented independently against a shared registry.
// Re-registering a name with a different type or label set panics — that is
// a programming error, as in expvar.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, typ MetricType, labelNames []string, collect func(Emit)) *family {
	if !validName(name, false) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l, true) || l == "quantile" {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labelNames, labelNames) ||
			(f.collect != nil) != (collect != nil) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		children:   make(map[string]*child),
		collect:    collect,
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, TypeCounter, labelNames, nil)}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter bound to the given label values, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).counter
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, TypeGauge, labelNames, nil)}
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the gauge bound to the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues).gauge
}

// Histogram registers (or returns) an unlabeled histogram covering
// [min, max] with the given bucket count, rendered as a Prometheus summary.
func (r *Registry) Histogram(name, help string, min, max float64, buckets int) *Histogram {
	return r.HistogramVec(name, help, min, max, buckets).With()
}

// HistogramVec registers (or returns) a labeled histogram family. The
// bucket layout is validated eagerly so misconfiguration fails at
// registration, not first observation.
func (r *Registry) HistogramVec(name, help string, min, max float64, buckets int, labelNames ...string) *HistogramVec {
	proto, err := stats.NewLogHistogram(min, max, buckets)
	if err != nil {
		panic("obs: " + err.Error())
	}
	f := r.family(name, help, TypeSummary, labelNames, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.histBuckets != 0 && (f.histMin != min || f.histMax != max || f.histBuckets != buckets) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with a different bucket layout", name))
	}
	if f.histProto == nil {
		f.histMin, f.histMax, f.histBuckets, f.histProto = min, max, buckets, proto
	}
	return &HistogramVec{f: f}
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the histogram bound to the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).hist
}

// RegisterCollector registers a metric family whose samples are produced at
// scrape time by collect. Use it for values that already live elsewhere
// under their own synchronization (per-domain controller counters, TSDB
// series counts) instead of double-bookkeeping them. Only counter and gauge
// collectors are supported. Registering the same name twice panics: a
// collector is an exclusive binding to its source.
func (r *Registry) RegisterCollector(name, help string, typ MetricType, labelNames []string, collect func(Emit)) {
	if typ != TypeCounter && typ != TypeGauge {
		panic(fmt.Sprintf("obs: collector %q must be a counter or gauge", name))
	}
	if collect == nil {
		panic(fmt.Sprintf("obs: collector %q registered with nil collect", name))
	}
	r.mu.RLock()
	_, dup := r.families[name]
	r.mu.RUnlock()
	if dup {
		panic(fmt.Sprintf("obs: collector %q already registered", name))
	}
	r.family(name, help, typ, labelNames, collect)
}

// GaugeFunc registers an unlabeled gauge whose value is fn() at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.RegisterCollector(name, help, TypeGauge, nil, func(emit Emit) { emit(nil, fn()) })
}

// WritePrometheus renders every registered family in text exposition
// format, families sorted by name, children in label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()

	var buf bytes.Buffer
	for _, f := range fams {
		f.render(&buf)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// Handler serves GET /metrics: the full exposition with the standard
// text-format content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The exposition is rendered into the response directly; on a
		// mid-write network error there is nothing useful left to send.
		_ = r.WritePrometheus(w)
	})
}

func (f *family) render(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(buf, "# TYPE %s %s\n", f.name, f.typ)
	if f.collect != nil {
		f.collect(func(labelValues []string, v float64) {
			writeSample(buf, f.name, f.labelNames, labelValues, "", formatValue(v))
		})
		return
	}
	f.mu.RLock()
	keys := append([]string(nil), f.keys...)
	children := make([]*child, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	for _, c := range children {
		switch f.typ {
		case TypeCounter:
			writeSample(buf, f.name, f.labelNames, c.labelValues, "",
				strconv.FormatInt(c.counter.Value(), 10))
		case TypeGauge:
			writeSample(buf, f.name, f.labelNames, c.labelValues, "",
				formatValue(c.gauge.Value()))
		case TypeSummary:
			vals, sum, n := c.hist.snapshot(summaryQuantiles)
			for i, q := range summaryQuantiles {
				writeSample(buf, f.name, f.labelNames, c.labelValues,
					formatValue(q), formatValue(vals[i]))
			}
			writeSample(buf, f.name+"_sum", f.labelNames, c.labelValues, "",
				formatValue(sum))
			writeSample(buf, f.name+"_count", f.labelNames, c.labelValues, "",
				strconv.FormatInt(n, 10))
		}
	}
}

// writeSample renders one exposition line. quantile, when non-empty, is
// appended as the summary's reserved quantile label.
func writeSample(buf *bytes.Buffer, name string, labelNames, labelValues []string, quantile, value string) {
	buf.WriteString(name)
	if len(labelNames) > 0 || quantile != "" {
		buf.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(ln)
			buf.WriteString(`="`)
			buf.WriteString(escapeLabel(labelValues[i]))
			buf.WriteByte('"')
		}
		if quantile != "" {
			if len(labelNames) > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(`quantile="`)
			buf.WriteString(quantile)
			buf.WriteByte('"')
		}
		buf.WriteByte('}')
	}
	buf.WriteByte(' ')
	buf.WriteString(value)
	buf.WriteByte('\n')
}

// formatValue renders a float the way Prometheus expects, including the
// NaN/+Inf/-Inf spellings.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
