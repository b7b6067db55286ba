// Package tsdb is the in-memory time-series database behind the power
// monitor. The paper stores 1-minute power samples in MySQL and exposes a
// RESTful query API; this package provides the same contract — append-only
// per-series storage with retention, range queries, and an HTTP API — so the
// monitor and controller stay stateless, as §3.3 requires.
package tsdb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Point is one sample of one series.
type Point struct {
	T sim.Time `json:"t"`
	V float64  `json:"v"`
}

// DB stores named series of time-ordered points in frames. A frame is a
// fixed, ordered set of series that share one timestamp per row: the
// monitor's sweep is one frame, written a row per sweep, and a series written
// by name with Append is a frame of width 1. It is safe for concurrent use:
// the simulation appends while HTTP queries read, and every frame has its own
// lock, so a reader sees a frame's rows whole and never serializes against
// appends to another frame.
type DB struct {
	retention int // max rows kept per frame, and so points per series; 0 = unlimited

	mu     sync.RWMutex
	index  map[string]column // every series → its frame and column
	frames []*Frame          // in creation order
	met    *metrics
}

// column locates a series: column col of frame f.
type column struct {
	f   *Frame
	col int
}

// Frame is a fixed, ordered set of series written a row at a time, one
// timestamp per row. Rows live in a ring of slots of 1+width words: retained
// row i (0 the oldest) is slot (head+i) mod slots, its timestamp's bits then
// its values. The ring doubles as it fills, up to the DB's retention, and
// from then on each row overwrites the oldest, so steady-state appends
// allocate nothing. What an append touches — the lock, the ring's header,
// head and n — sits together at the top of the struct, and a row's
// timestamp sits with its values: a by-name writer appends to tens of
// thousands of width-1 frames a minute, each a cache miss, and it should be
// one miss for the frame and one for the row. A frame that holds no row yet does not exist as
// far as Names, SeriesCount and the HTTP API are concerned.
type Frame struct {
	mu   sync.Mutex
	ring []float64
	head int // slot of the oldest row; 0 until the ring first fills
	n    int // retained rows

	db    *DB
	names []string
}

// metrics is the DB's optional observability wiring.
type metrics struct {
	appends      *obs.Counter
	appendErrors *obs.Counter
	queryDur     *obs.Histogram
}

// Instrument registers the database's metrics on reg (nil is a no-op):
//
//	tsdb_appends_total            counter, samples (a frame row adds its width)
//	tsdb_append_errors_total      counter (out-of-order or non-finite rejections)
//	tsdb_series                   gauge, collected at scrape time
//	tsdb_points                   gauge, total retained points
//	tsdb_query_duration_seconds   summary, wall-clock per Query
//
// Call before serving concurrent traffic.
func (db *DB) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	db.met = &metrics{
		appends:      reg.Counter("tsdb_appends_total", "Samples appended across all series."),
		appendErrors: reg.Counter("tsdb_append_errors_total", "Appends rejected (out-of-order timestamps or non-finite values)."),
		queryDur: reg.Histogram("tsdb_query_duration_seconds",
			"Wall-clock duration of one range query.", 1e-8, 10, 400),
	}
	reg.GaugeFunc("tsdb_series", "Retained series count.",
		func() float64 { return float64(db.SeriesCount()) })
	reg.GaugeFunc("tsdb_points", "Total retained points across all series.",
		func() float64 { return float64(db.PointCount()) })
}

// New returns a DB that retains at most retentionPoints per series
// (0 = unlimited).
func New(retentionPoints int) *DB {
	return &DB{retention: retentionPoints, index: make(map[string]column)}
}

// Frame returns the frame of the named series, column for column, creating
// it the first time. The same names return the same frame, so a restarted
// writer continues its predecessor's history; a name already stored in
// another frame is an error.
func (db *DB) Frame(names []string) (*Frame, error) {
	if len(names) == 0 {
		return nil, errors.New("tsdb: frame of no series")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if c, ok := db.index[names[0]]; ok && slices.Equal(c.f.names, names) {
		return c.f, nil
	}
	return db.newFrame(slices.Clone(names))
}

// newFrame registers a frame over names. The caller holds db.mu.
func (db *DB) newFrame(names []string) (*Frame, error) {
	f := &Frame{db: db, names: names}
	for i, name := range names {
		if _, ok := db.index[name]; ok {
			for _, added := range names[:i] {
				delete(db.index, added)
			}
			return nil, fmt.Errorf("tsdb: series %q is already stored", name)
		}
		db.index[name] = column{f, i}
	}
	db.frames = append(db.frames, f)
	return f, nil
}

// lookup returns the named series' frame and column.
func (db *DB) lookup(name string) (column, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.index[name]
	return c, ok
}

// Append adds a sample to the named series, a frame of width 1 created the
// first time. A series that is a column of a wider frame takes samples only
// in its frame's rows: appending one by name is an error.
func (db *DB) Append(name string, t sim.Time, v float64) error {
	c, ok := db.lookup(name)
	if !ok {
		db.mu.Lock()
		if c, ok = db.index[name]; !ok {
			c.f, _ = db.newFrame([]string{name}) // cannot fail: name is not stored
		}
		db.mu.Unlock()
	}
	row := [1]float64{v}
	return c.f.Append(t, row[:])
}

// Append adds one row: row[i] is the sample of the frame's series i at t.
// Timestamps must be non-decreasing; an out-of-order row returns an error
// (the monitor never produces one, so an error indicates a wiring bug). A
// row holding a non-finite value (NaN, ±Inf) is rejected whole:
// encoding/json cannot marshal them, so a single poisoned sample would turn
// every later /query and /latest on its series into a 500. Either way a
// reader sees the whole row or none of it.
func (f *Frame) Append(t sim.Time, row []float64) error {
	err := f.add(t, row)
	if met := f.db.met; met != nil && err != nil {
		met.appendErrors.Inc()
	} else if met != nil {
		met.appends.Add(int64(len(row)))
	}
	return err
}

func (f *Frame) add(t sim.Time, row []float64) error {
	w := len(f.names)
	if len(row) != w {
		return fmt.Errorf("tsdb: %d values appended to the %d-series frame of %q", len(row), w, f.names[0])
	}
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tsdb: non-finite value %v appended to %q at %v", v, f.names[i], t)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n > 0 {
		if last := f.time(f.slot(f.n - 1)); last > t {
			return fmt.Errorf("tsdb: out-of-order append to %q: %v after %v", f.names[0], t, last)
		}
	}
	slot := f.n
	switch {
	case f.n < f.slots():
		f.n++
	case f.n == f.db.retention && f.n > 0: // full: overwrite the oldest row
		slot = f.head
		f.head = (f.head + 1) % f.n
	default:
		f.grow()
		f.n++
	}
	at := slot * f.stride()
	f.ring[at] = math.Float64frombits(uint64(t))
	copy(f.ring[at+1:at+1+w], row)
	return nil
}

// grow doubles the ring, up to the retention. It runs only before the ring
// first fills, while head is 0 and the rows are in slot order.
func (f *Frame) grow() {
	slots := max(2*f.n, 4)
	if r := f.db.retention; r > 0 {
		slots = min(slots, r)
	}
	ring := make([]float64, slots*f.stride())
	copy(ring, f.ring)
	f.ring = ring
}

// stride is a ring slot's length: the timestamp, then a value per series.
func (f *Frame) stride() int { return 1 + len(f.names) }

// slots returns the ring's capacity in rows.
func (f *Frame) slots() int { return len(f.ring) / f.stride() }

// slot returns the ring slot of retained row i.
func (f *Frame) slot(i int) int { return (f.head + i) % f.slots() }

// time returns the timestamp of the row in slot s.
func (f *Frame) time(s int) sim.Time {
	return sim.Time(math.Float64bits(f.ring[s*f.stride()]))
}

// point returns retained row i's sample of series col.
func (f *Frame) point(i, col int) Point {
	s := f.slot(i)
	return Point{T: f.time(s), V: f.ring[s*f.stride()+1+col]}
}

// read calls fn with the named series' frame, locked, and its column,
// if a frame holds the name. Every per-series read goes through it.
func (db *DB) read(name string, fn func(f *Frame, col int)) {
	if c, ok := db.lookup(name); ok {
		c.f.mu.Lock()
		defer c.f.mu.Unlock()
		fn(c.f, c.col)
	}
}

// each calls fn with every frame that holds a row, locked. Every
// whole-database read goes through it.
func (db *DB) each(fn func(f *Frame)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, f := range db.frames {
		f.mu.Lock()
		if f.n > 0 {
			fn(f)
		}
		f.mu.Unlock()
	}
}

// Query returns the points of the named series with from ≤ T ≤ to, in time
// order. The result is a copy.
func (db *DB) Query(name string, from, to sim.Time) []Point {
	if db.met != nil {
		defer func(start time.Time) {
			db.met.queryDur.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	var out []Point
	db.read(name, func(f *Frame, col int) {
		lo := sort.Search(f.n, func(i int) bool { return f.time(f.slot(i)) >= from })
		hi := sort.Search(f.n, func(i int) bool { return f.time(f.slot(i)) > to })
		if lo >= hi {
			return
		}
		out = make([]Point, hi-lo)
		for k := range out {
			out[k] = f.point(lo+k, col)
		}
	})
	return out
}

// Values is Query returning only the sample values.
func (db *DB) Values(name string, from, to sim.Time) []float64 {
	pts := db.Query(name, from, to)
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// Latest returns the most recent point of the named series.
func (db *DB) Latest(name string) (p Point, ok bool) {
	db.read(name, func(f *Frame, col int) {
		if ok = f.n > 0; ok {
			p = f.point(f.n-1, col)
		}
	})
	return p, ok
}

// Len returns the number of retained points in the named series.
func (db *DB) Len(name string) (n int) {
	db.read(name, func(f *Frame, _ int) { n = f.n })
	return n
}

// SeriesCount returns the number of retained series: those holding a point.
func (db *DB) SeriesCount() (n int) {
	db.each(func(f *Frame) { n += len(f.names) })
	return n
}

// PointCount returns the total number of retained points across series.
func (db *DB) PointCount() (n int) {
	db.each(func(f *Frame) { n += f.n * len(f.names) })
	return n
}

// Names returns the names of all retained series, sorted.
func (db *DB) Names() []string {
	var names []string
	db.each(func(f *Frame) { names = append(names, f.names...) })
	sort.Strings(names)
	return names
}
