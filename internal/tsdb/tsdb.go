// Package tsdb is the in-memory time-series database behind the power
// monitor. The paper stores 1-minute power samples in MySQL and exposes a
// RESTful query API; this package provides the same contract — append-only
// per-series storage with retention, range queries, and an HTTP API — so the
// monitor and controller stay stateless, as §3.3 requires.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Point is one sample of one series.
type Point struct {
	T sim.Time `json:"t"`
	V float64  `json:"v"`
}

// shardCount is the number of independently locked series-map shards. A
// power of two so the hash can be masked. 64 comfortably exceeds the core
// count of the machines the parallel experiment runs target, so concurrent
// HTTP queries virtually never contend when they resolve names.
const shardCount = 64

// shard is one lock + series-map pair. The lock guards the map only; each
// series guards its own points.
type shard struct {
	mu     sync.RWMutex
	series map[string]*Series
}

// defaultBlockCap is the fixed capacity of one storage block. Small enough
// that an idle series wastes little, large enough that index math and the
// blocks slice stay cheap at millions of points.
const defaultBlockCap = 512

// Series is one named series, resolved once with DB.Series so that appending
// to it costs no name hash, shard lock or map lookup — the monitor appends
// to the same tens of thousands of series every minute. A resolved series
// that holds no point yet does not exist as far as Names, SeriesCount and
// the HTTP API are concerned.
//
// Points are stored in fixed-capacity blocks instead of a single
// append-grown slice. blocks are the full ones, oldest first, and tail is the
// one being filled; start (always < the block capacity) counts points of the
// oldest block already dropped by retention, so retained point i lives at
// the globally computable position start+i. With retention enabled the
// oldest block is recycled as the next tail the moment retention consumes
// it, so steady-state appends allocate nothing. What an append reads — the
// lock, the last timestamp, the tail's slice header — sits together at the
// top of the struct: at fleet scale every series is a cache miss, and it
// should be one miss, not a chase through blocks.
type Series struct {
	mu    sync.Mutex
	lastT sim.Time // timestamp of the newest point; meaningful when n > 0
	tail  []Point
	n     int // retained point count
	start int // points of the oldest block consumed by retention

	blocks [][]Point
	spare  []Point // one empty full-capacity block awaiting reuse
	db     *DB
	name   string
}

// at returns retained point i (0 ≤ i < n).
func (s *Series) at(i int) Point {
	a := s.start + i
	if b := a / s.db.blockCap; b < len(s.blocks) {
		return s.blocks[b][a%s.db.blockCap]
	}
	return s.tail[a%s.db.blockCap]
}

// DB stores named series of time-ordered points. It is safe for concurrent
// use: the simulation appends while HTTP queries read. Every series has its
// own lock, so readers of one series never serialize against appends to
// another.
type DB struct {
	shards    [shardCount]shard
	retention int // max points kept per series; 0 = unlimited
	// blockCap is every series' block capacity. Blocks are dropped whole, so
	// a series can hold up to retention + blockCap points' worth of them: a
	// short retention takes a quarter-size block (at most 25 % over), an
	// unlimited or long one the default.
	blockCap int
	nonEmpty atomic.Int64 // series holding at least one point
	met      *metrics
}

// metrics is the DB's optional observability wiring.
type metrics struct {
	appends      *obs.Counter
	appendErrors *obs.Counter
	queryDur     *obs.Histogram
}

// Instrument registers the database's metrics on reg (nil is a no-op):
//
//	tsdb_appends_total            counter
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
	db := &DB{retention: retentionPoints, blockCap: defaultBlockCap}
	if db.retention > 0 && db.retention < 4*defaultBlockCap {
		db.blockCap = max(db.retention/4, 1)
	}
	for i := range db.shards {
		db.shards[i].series = make(map[string]*Series)
	}
	return db
}

// shardOf returns the shard owning the named series (FNV-1a over the name).
func (db *DB) shardOf(name string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return &db.shards[h&(shardCount-1)]
}

// lookup returns the named series, or nil when nothing ever resolved it.
func (db *DB) lookup(name string) *Series {
	sh := db.shardOf(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.series[name]
}

// Series resolves name to its series, creating an empty one the first time.
// Resolve once and keep the result: the handle stays valid for the DB's
// lifetime.
func (db *DB) Series(name string) *Series {
	if s := db.lookup(name); s != nil {
		return s
	}
	sh := db.shardOf(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.series[name]
	if s == nil {
		s = &Series{db: db, name: name}
		sh.series[name] = s
	}
	return s
}

// Append adds a sample to the named series; it is Series(name).Append.
func (db *DB) Append(name string, t sim.Time, v float64) error {
	return db.Series(name).Append(t, v)
}

// Append adds a sample to the series. Timestamps must be non-decreasing;
// out-of-order appends return an error (the monitor never produces them, so
// an error indicates a wiring bug). Non-finite values (NaN, ±Inf) are
// rejected: encoding/json cannot marshal them, so a single poisoned sample
// would turn every later /query and /latest on the series into a 500.
func (s *Series) Append(t sim.Time, v float64) error {
	db := s.db
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if db.met != nil {
			db.met.appendErrors.Inc()
		}
		return fmt.Errorf("tsdb: non-finite value %v appended to %q at %v", v, s.name, t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n > 0 && s.lastT > t {
		if db.met != nil {
			db.met.appendErrors.Inc()
		}
		return fmt.Errorf("tsdb: out-of-order append to %q: %v after %v", s.name, t, s.lastT)
	}
	if db.met != nil {
		db.met.appends.Inc()
	}
	if len(s.tail) == cap(s.tail) {
		if s.tail != nil {
			s.blocks = append(s.blocks, s.tail)
		}
		s.tail = s.spare
		s.spare = nil
		if s.tail == nil {
			s.tail = make([]Point, 0, db.blockCap)
		}
	}
	s.tail = append(s.tail, Point{T: t, V: v})
	s.lastT = t
	if s.n++; s.n == 1 {
		db.nonEmpty.Add(1)
	}
	if db.retention > 0 && s.n > db.retention {
		// Drop the oldest point; when that empties the oldest block, recycle
		// it as the next tail instead of allocating. The tail cannot be the
		// block that empties: the point just appended is retained.
		s.n--
		s.start++
		if s.start == db.blockCap {
			oldest := s.blocks[0]
			last := copy(s.blocks, s.blocks[1:])
			s.blocks[last] = nil
			s.blocks = s.blocks[:last]
			s.spare = oldest[:0]
			s.start = 0
		}
	}
	return nil
}

// Query returns the points of the named series with from ≤ T ≤ to, in time
// order. The result is a copy.
func (db *DB) Query(name string, from, to sim.Time) []Point {
	if db.met != nil {
		defer func(start time.Time) {
			db.met.queryDur.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	s := db.lookup(name)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(s.n, func(i int) bool { return s.at(i).T >= from })
	hi := sort.Search(s.n, func(i int) bool { return s.at(i).T > to })
	if lo >= hi {
		return nil
	}
	out := make([]Point, hi-lo)
	for k := lo; k < hi; {
		a := s.start + k
		blk := s.tail
		if b := a / db.blockCap; b < len(s.blocks) {
			blk = s.blocks[b]
		}
		k += copy(out[k-lo:], blk[a%db.blockCap:])
	}
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
func (db *DB) Latest(name string) (Point, bool) {
	s := db.lookup(name)
	if s == nil {
		return Point{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Point{}, false
	}
	return s.tail[len(s.tail)-1], true
}

// Len returns the number of retained points in the named series.
func (db *DB) Len(name string) int {
	s := db.lookup(name)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// SeriesCount returns the number of retained series: those holding a point.
func (db *DB) SeriesCount() int { return int(db.nonEmpty.Load()) }

// each calls fn with every resolved series' name and retained point count.
func (db *DB) each(fn func(name string, points int)) {
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for name, s := range sh.series {
			s.mu.Lock()
			n := s.n
			s.mu.Unlock()
			fn(name, n)
		}
		sh.mu.RUnlock()
	}
}

// PointCount returns the total number of retained points across series.
func (db *DB) PointCount() int {
	total := 0
	db.each(func(_ string, points int) { total += points })
	return total
}

// Names returns the names of all retained series, sorted.
func (db *DB) Names() []string {
	var names []string
	db.each(func(name string, points int) {
		if points > 0 {
			names = append(names, name)
		}
	})
	sort.Strings(names)
	return names
}
