// Package monitor implements the paper's power monitor (§3.3): it samples
// every server's power once per minute (the paper's IPMI path), aggregates
// to rack, row and data-center level, and stores the history in the
// time-series database. Like the paper's monitor it is stateless — all
// history lives in the TSDB, and the latest per-server snapshot can be
// rebuilt by re-sampling.
package monitor

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

// Series naming scheme used in the TSDB.
const (
	SeriesDC = "dc"
)

// SeriesRow returns the TSDB series name for row r.
func SeriesRow(r int) string { return fmt.Sprintf("row/%d", r) }

// SeriesRack returns the TSDB series name for rack k on row r.
func SeriesRack(r, k int) string { return fmt.Sprintf("rack/%d/%d", r, k) }

// interval is the period between sampling sweeps. The paper samples every
// minute, "a good tradeoff between measurement accuracy and monitoring
// overhead".
const interval = sim.Minute

// Config controls failure injection; the zero value is a healthy monitor.
type Config struct {
	// SweepDropRate injects monitoring failures: each sweep is skipped
	// entirely with this probability (an IPMI/collector outage for that
	// minute). Consumers observe it as a stale snapshot — the controller's
	// SkippedNoData path only triggers before the first successful sweep,
	// so the realistic failure mode is staleness, which RHC absorbs.
	SweepDropRate float64
	// DropSeed seeds the failure-injection stream.
	DropSeed uint64
}

// DefaultConfig returns a healthy monitor's configuration.
func DefaultConfig() Config { return Config{} }

// Store is the monitor's view of the time-series database: an append-only
// sink for samples. tsdb.DB satisfies it; fault injectors wrap it to make
// the write path fail.
type Store interface {
	Append(name string, t sim.Time, v float64) error
}

const (
	// shareServers is the fleet one sampling goroutine is worth: the sample
	// phase uses min(GOMAXPROCS, servers/shareServers) of them. 32,768
	// servers are ≥ 0.7 ms of sampling against the ~1 µs a helper costs to
	// wake, and every fleet under two shares sweeps inline.
	shareServers = 32768
	// blockRows is how many rows one index of the sample loop covers: few
	// enough claims that the loop's cursor is never contended, blocks small
	// enough that the last one out keeps the others waiting for microseconds.
	blockRows = 16
)

// Monitor samples a cluster into a TSDB and keeps a latest-value snapshot.
type Monitor struct {
	eng *sim.Engine
	c   *cluster.Cluster
	cfg Config

	store Store
	// db is the store when it is a *tsdb.DB, which takes each sweep as one row
	// of frame. The frame is resolved at the first publish, not by SetStore:
	// New sets the DB before a caller can wrap it in a by-name store, and
	// that store must find the names free.
	db          *tsdb.DB
	frame       *tsdb.Frame
	writeErrors int64

	lastServer []float64 // latest sample per server
	// row is the latest sweep's aggregates laid out as the frame's row: every
	// rack total, then every row total, then the data-center total.
	// lastRack[r*RacksPerRow+k] and lastRow[r] are its sub-slices, maintained
	// while sweeping so RowPower/RackPower reads are O(1) instead of
	// re-summing the row on every controller tick.
	row        []float64
	lastRack   []float64
	lastRow    []float64
	lastTime   sim.Time
	haveSample bool
	sweeps     int64
	dropped    int64
	dropRNG    *rand.Rand

	// names are the TSDB series names of row, column for column, and
	// rackNames/rowNames its sub-slices, precomputed at construction: Sweep
	// must not fmt.Sprintf per rack per minute at 100k-server scale.
	// Per-server history is not stored: at data-center scale it dominates
	// memory, and the controller needs only the latest snapshot.
	names     []string
	rackNames []string
	rowNames  []string

	// sample is the sweep's sample phase, one index a block of blockRows rows.
	sample *runner.Loop

	handle   sim.Handle
	onSample []func(now sim.Time)
	met      *metrics
}

// metrics is the monitor's optional observability wiring: atomic counters
// incremented on the sweep path, so scrapes from another goroutine never
// race the simulation.
type metrics struct {
	sweeps      *obs.Counter
	dropped     *obs.Counter
	samples     *obs.Counter
	writeErrors *obs.Counter
	sweepDur    *obs.Histogram
}

// Instrument registers the monitor's metrics on reg (nil is a no-op):
//
//	monitor_sweeps_total               counter
//	monitor_sweeps_dropped_total       counter
//	monitor_samples_ingested_total     counter
//	monitor_store_write_errors_total   counter
//	monitor_sweep_duration_seconds     summary
//
// Call before Start.
func (m *Monitor) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.met = &metrics{
		sweeps:      reg.Counter("monitor_sweeps_total", "Completed sampling sweeps."),
		dropped:     reg.Counter("monitor_sweeps_dropped_total", "Sweeps lost to injected collector outages."),
		samples:     reg.Counter("monitor_samples_ingested_total", "Per-server power samples taken."),
		writeErrors: reg.Counter("monitor_store_write_errors_total", "TSDB writes rejected by the store."),
		sweepDur: reg.Histogram("monitor_sweep_duration_seconds",
			"Wall-clock duration of one sampling sweep.", 1e-7, 10, 400),
	}
}

// New builds a monitor. db may be nil, in which case only the in-memory
// snapshot is maintained (used by lightweight tests).
func New(eng *sim.Engine, c *cluster.Cluster, db *tsdb.DB, cfg Config) (*Monitor, error) {
	if cfg.SweepDropRate < 0 || cfg.SweepDropRate >= 1 {
		return nil, fmt.Errorf("monitor: sweep drop rate %v outside [0, 1)", cfg.SweepDropRate)
	}
	rows, racks := c.Rows(), c.Rows()*c.Spec.RacksPerRow
	m := &Monitor{
		eng:        eng,
		c:          c,
		cfg:        cfg,
		lastServer: make([]float64, len(c.Servers)),
		row:        make([]float64, racks+rows+1),
		names:      make([]string, racks+rows+1),
	}
	m.lastRack, m.lastRow = m.row[:racks], m.row[racks:racks+rows]
	m.rackNames, m.rowNames = m.names[:racks], m.names[racks:racks+rows]
	for r := 0; r < rows; r++ {
		m.rowNames[r] = SeriesRow(r)
		for k := 0; k < c.Spec.RacksPerRow; k++ {
			m.rackNames[r*c.Spec.RacksPerRow+k] = SeriesRack(r, k)
		}
	}
	m.names[racks+rows] = SeriesDC
	m.sample = runner.NewLoop(m.sampleBlock)
	if db != nil {
		m.SetStore(db)
	}
	if cfg.SweepDropRate > 0 {
		m.dropRNG = sim.SubRNG(cfg.DropSeed, "monitor-drops")
	}
	return m, nil
}

// SetStore replaces the monitor's TSDB sink. Chaos tests interpose a
// failing store here; passing nil disables history entirely. Call before
// Start.
func (m *Monitor) SetStore(s Store) {
	m.store = s
	m.db, _ = s.(*tsdb.DB)
	m.frame = nil
}

// Start begins periodic sampling, with the first sweep at the current time.
// Start the monitor before any component that consumes its samples in the
// same interval, so sweeps always precede consumers deterministically.
func (m *Monitor) Start() {
	if m.handle != (sim.Handle{}) {
		return
	}
	m.handle = m.eng.Every(m.eng.Now(), interval, "power-monitor", m.Sweep)
}

// Stop halts sampling.
func (m *Monitor) Stop() {
	m.eng.Cancel(m.handle)
	m.handle = sim.Handle{}
}

// OnSample registers a callback invoked after every sweep. Experiment
// harnesses use it to record group-level metrics at monitor resolution.
func (m *Monitor) OnSample(fn func(now sim.Time)) { m.onSample = append(m.onSample, fn) }

// Sweep performs one sampling pass immediately. It is normally driven by
// Start's periodic event but is exported so tests and restarted monitors can
// force a sample.
//
// A sweep is a sample phase, which may run on several goroutines and touches
// only the servers and the snapshot, then a publish phase on the calling
// goroutine that does everything else: the data-center total, the store
// write, the counters and the callbacks. What a Store, a callback or a reader
// can observe is therefore the same at any GOMAXPROCS.
func (m *Monitor) Sweep(now sim.Time) {
	if m.dropRNG != nil && m.dropRNG.Float64() < m.cfg.SweepDropRate {
		m.dropped++
		if m.met != nil {
			m.met.dropped.Inc()
		}
		return
	}
	var start time.Time
	if m.met != nil {
		start = time.Now()
	}

	m.sample.Run(m.sweepWidth(), (m.c.Rows()+blockRows-1)/blockRows)

	dcTotal := 0.0
	for _, rowTotal := range m.lastRow {
		dcTotal += rowTotal
	}
	m.row[len(m.row)-1] = dcTotal
	m.publish(now)
	m.lastTime = now
	m.haveSample = true
	m.sweeps++
	if m.met != nil {
		m.met.sweeps.Inc()
		m.met.samples.Add(int64(len(m.c.Servers)))
		m.met.sweepDur.Observe(time.Since(start).Seconds())
	}
	for _, fn := range m.onSample {
		fn(now)
	}
}

// sweepWidth is the sample phase's goroutine count:
// min(GOMAXPROCS, servers/shareServers), and one — the caller, inline —
// below two shares.
func (m *Monitor) sweepWidth() int {
	return min(runtime.GOMAXPROCS(0), max(len(m.c.Servers)/shareServers, 1))
}

// sampleBlock is the sample phase's body: it fills lastServer, lastRack and
// lastRow for block b of rows. Each row is sampled into lastServer with one
// cluster.SamplePowers call, which reads the cluster's sample column and
// never a Server record, then summed rack by rack, every total in server-ID
// order from zero. Blocks, and so servers, are disjoint between goroutines.
func (m *Monitor) sampleBlock(b int) {
	rows, racks := m.c.Rows(), m.c.Spec.RacksPerRow
	perRow, perRack := m.c.Spec.ServersPerRow(), m.c.Spec.ServersPerRack
	for r := b * blockRows; r < min((b+1)*blockRows, rows); r++ {
		row := m.lastServer[r*perRow : (r+1)*perRow]
		m.c.SamplePowers(cluster.ServerID(r*perRow), row)
		rowTotal := 0.0
		rackTotals := m.lastRack[r*racks : (r+1)*racks]
		for k := range rackTotals {
			rackTotal := 0.0
			for _, p := range row[k*perRack : (k+1)*perRack] {
				rowTotal += p
				rackTotal += p
			}
			rackTotals[k] = rackTotal
		}
		m.lastRow[r] = rowTotal
	}
}

// publish writes the sweep to the store: to a tsdb.DB as one row of its
// frame, to any other store by name — each row's total, then its racks', and
// the data-center total last. History is best-effort: a rejected write loses
// its points but must not take down sampling — the controller consumes the
// in-memory snapshot, which is already updated.
func (m *Monitor) publish(now sim.Time) {
	switch {
	case m.db != nil:
		var err error
		if m.frame == nil {
			m.frame, err = m.db.Frame(m.names)
		}
		if err == nil {
			err = m.frame.Append(now, m.row)
		}
		m.check(err)
	case m.store != nil:
		racks := m.c.Spec.RacksPerRow
		for r, rowTotal := range m.lastRow {
			m.check(m.store.Append(m.rowNames[r], now, rowTotal))
			for i := r * racks; i < (r+1)*racks; i++ {
				m.check(m.store.Append(m.rackNames[i], now, m.lastRack[i]))
			}
		}
		m.check(m.store.Append(SeriesDC, now, m.row[len(m.row)-1]))
	}
}

// check counts a rejected write.
func (m *Monitor) check(err error) {
	if err != nil {
		m.writeErrors++
		if m.met != nil {
			m.met.writeErrors.Inc()
		}
	}
}

// Sweeps returns the number of completed sampling passes.
func (m *Monitor) Sweeps() int64 { return m.sweeps }

// Dropped returns the number of sweeps lost to injected failures.
func (m *Monitor) Dropped() int64 { return m.dropped }

// WriteErrors returns the number of TSDB writes the store rejected.
func (m *Monitor) WriteErrors() int64 { return m.writeErrors }

// ServerPower returns the latest sampled power of one server.
func (m *Monitor) ServerPower(id cluster.ServerID) (float64, bool) {
	if !m.haveSample || int(id) < 0 || int(id) >= len(m.lastServer) {
		return 0, false
	}
	return m.lastServer[id], true
}

// RowPower returns the latest sampled total power of row r. The total is
// maintained during Sweep (same per-server addition order as the historical
// re-sum, so the value is bit-identical), making the read O(1) — it sits on
// the controller's per-tick hot path.
func (m *Monitor) RowPower(r int) (float64, bool) {
	if !m.haveSample || r < 0 || r >= m.c.Rows() {
		return 0, false
	}
	return m.lastRow[r], true
}

// RackPower returns the latest sampled total power of rack k on row r, O(1).
func (m *Monitor) RackPower(r, k int) (float64, bool) {
	if !m.haveSample || r < 0 || r >= m.c.Rows() || k < 0 || k >= m.c.Spec.RacksPerRow {
		return 0, false
	}
	return m.lastRack[r*m.c.Spec.RacksPerRow+k], true
}

// GroupPower returns the latest sampled total power of an arbitrary server
// set — the controlled experiments' virtual groups (§4.1.2).
func (m *Monitor) GroupPower(ids []cluster.ServerID) (float64, bool) {
	if !m.haveSample {
		return 0, false
	}
	total := 0.0
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(m.lastServer) {
			return 0, false
		}
		total += m.lastServer[id]
	}
	return total, true
}

// PowerSnapshot exposes the latest per-server sample slice, indexed by
// ServerID — what the controller's per-tick ranking refresh reads. The slice is owned by the monitor and mutated
// only during Sweep; callers must treat it as read-only and not retain it
// across sweeps.
func (m *Monitor) PowerSnapshot() ([]float64, bool) {
	return m.lastServer, m.haveSample
}

// RangePower returns the latest total power of the contiguous server-ID
// range [lo, hi], as core.PowerReader requires it: the result is
// bit-identical to GroupPower over the ascending ID slice. Row- and
// rack-aligned ranges are served O(1) from the aggregates maintained during
// Sweep, which accumulates them in the same ascending per-server order as a
// re-sum (rows are contiguous ID ranges and racks contiguous sub-ranges, see
// cluster.New's layout); anything else is summed directly from the snapshot.
func (m *Monitor) RangePower(lo, hi cluster.ServerID) (float64, bool) {
	if !m.haveSample || lo < 0 || hi < lo || int(hi) >= len(m.lastServer) {
		return 0, false
	}
	perRack := m.c.Spec.ServersPerRack
	perRow := m.c.Spec.RacksPerRow * perRack
	n := int(hi-lo) + 1
	if n == perRow && int(lo)%perRow == 0 {
		return m.lastRow[int(lo)/perRow], true
	}
	if n == perRack && int(lo)%perRack == 0 {
		return m.lastRack[int(lo)/perRack], true
	}
	total := 0.0
	for _, v := range m.lastServer[lo : hi+1] {
		total += v
	}
	return total, true
}

// LastSampleTime returns the time of the latest sweep.
func (m *Monitor) LastSampleTime() (sim.Time, bool) { return m.lastTime, m.haveSample }

// GroupSampleTime returns the time the latest snapshot of the group was
// taken. Sweeps sample the whole cluster at once, so every group shares the
// sweep time, so the controller can tell
// a fresh sample from a snapshot left stale by dropped sweeps.
func (m *Monitor) GroupSampleTime([]cluster.ServerID) (sim.Time, bool) {
	return m.lastTime, m.haveSample
}
