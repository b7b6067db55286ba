// Package scheduler implements the two-level, Omega-like job scheduler the
// paper's data center runs (§2.1). The lower level tracks server resources as
// containers, maintains per-row candidate lists, and exposes exactly the two
// operations Ampere is allowed to use — Freeze and Unfreeze. The upper level
// is a pluggable placement policy. Every job is a batch task holding one
// container. Placement probability is proportional to available servers
// (weighted by product affinity), which is the statistical property Ampere's
// indirect control relies on (§3.4).
package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FreezeAPI is the complete interface Ampere may use to influence
// scheduling: the paper's freeze/unfreeze pair and nothing else.
type FreezeAPI interface {
	// Freeze advises the scheduler to stop assigning new jobs to the
	// server. Running jobs are unaffected.
	Freeze(id cluster.ServerID) error
	// Unfreeze makes a frozen server schedulable again.
	Unfreeze(id cluster.ServerID) error
}

// Policy is the upper-level, application-specific placement logic. Pick
// selects one server ID from a non-empty candidate slice of the IDs of
// schedulable servers on one row, or returns a negative ID to place nothing.
// The slice is the scheduler's own index: implementations must neither modify
// nor retain it, and must not retain job past the call, which points into
// storage the scheduler recycles. A policy that weighs server state holds the
// *cluster.Cluster itself.
type Policy interface {
	Name() string
	Pick(r *rand.Rand, job *workload.Job, candidates []int32) int32
}

// RowShaping is the row-selection step of placement. Proportional is the
// paper's scheduler; the other two are its future-work direction (§6): "we
// are exploring ways to schedule the jobs to different rows so that there can
// be a larger variance in power utilization across different rows, leading
// to more unused power to cultivate". Either way Ampere's freeze/unfreeze
// interface is unchanged, exactly as the paper notes. A shaping picks among
// the rows the job may go to (positive affinity weight, a schedulable
// server), ties going to the lowest index.
type RowShaping int

const (
	// Proportional samples a row with probability proportional to its
	// affinity weight times its schedulable-server count.
	Proportional RowShaping = iota
	// BalanceRows picks the least-utilized row, minimizing cross-row
	// variance: the contrast case of the spreading experiment.
	BalanceRows
	// ConcentrateRows packs new jobs onto the most-utilized row with
	// capacity, keeping other rows cold.
	ConcentrateRows
)

var rowShapingNames = [...]string{"proportional", "balance-rows", "concentrate-rows"}

// String returns the shaping's name as configs spell it.
func (rs RowShaping) String() string { return rowShapingNames[rs] }

// ParseRowShaping returns the shaping whose String is name, and whether
// there is one.
func ParseRowShaping(name string) (RowShaping, bool) {
	for i, n := range rowShapingNames {
		if n == name {
			return RowShaping(i), true
		}
	}
	return 0, false
}

// Stats counts scheduler activity.
type Stats struct {
	Submitted int64
	Placed    int64
	Completed int64
	// Queued is the number of jobs that had to wait at least once.
	Queued int64
	// Overflowed counts placements that landed outside the job's preferred
	// rows because those rows had no capacity.
	Overflowed int64
	// Killed counts jobs aborted by server failures (breaker trips). They
	// are gone, not re-queued: the batch framework above the scheduler owns
	// retries, which are new submissions.
	Killed int64
	// Rejected is always zero: every job fits a server's one container. It
	// stays so that Submitted = Placed + queued + Rejected reads the same for
	// callers that check conservation.
	Rejected int64
}

// Scheduler owns job placement and execution for one cluster.
type Scheduler struct {
	eng    *sim.Engine
	c      *cluster.Cluster
	rng    *rand.Rand
	policy Policy

	// avail[r] lists the IDs of row r's servers that are unfrozen, not
	// failed and have a free container. srv is the scheduler's column by
	// server ID: pos is the server's index in avail (−1 when absent), n the
	// number of jobs running on it. cluster.New numbers servers row by row,
	// perRow to a row (see rowOf).
	avail  [][]int32
	srv    []struct{ pos, n int32 }
	perRow int32
	// availTree holds len(avail[r]) per row for chooseRow's O(log rows) draw.
	availTree rowTree

	// queue is the FIFO of jobs waiting for capacity, held by value with
	// their enqueue time: job IDs are the submitters' and may collide, so
	// the wait cannot be looked up by ID.
	queue     []queuedJob
	queueHead int
	// waitHist accumulates queue wait times (ms) of jobs that had to wait.
	waitHist *stats.LogHistogram
	// stretchHist accumulates completed jobs' slowdown factors
	// (wall-clock execution time / full-speed work). 1.0 = never throttled;
	// DVFS capping pushes it up. Resettable for windowed measurements.
	stretchHist *stats.LogHistogram

	// productRows[p] is the row-affinity weight vector for product index p;
	// nil entries (or a missing index) mean uniform affinity.
	productRows [][]float64

	shaping RowShaping
	// busyRow[r] / capRow[r] track per-row container occupancy for
	// RowUtilization.
	busyRow []int
	capRow  []int

	// run is the slab of running jobs and runFree the head of its free-slot
	// list (-1 when empty); a slot is what a completion entry on done carries.
	// runs[r] holds row r's run lists: server i of the row (in ID order)
	// owns runs[r][i*Containers : i*Containers+srv[id].n], since a job holds
	// one container. A row's lists are allocated on its first placement, so a
	// fleet that runs no jobs pays nothing per server. A list is appended to
	// on placement and swap-removed from on completion, and that order is
	// load-bearing: speedChanged reschedules completions in list order, which
	// assigns their engine sequence numbers, which orders completions landing
	// on the same millisecond, which orders the float subtractions from the
	// server's CPU load. done is the engine lane of completions: s.complete,
	// live while the slot's record holds the entry's seq, touched by s.touch;
	// touched is the touch's sink.
	run     sim.Slab[runningJob]
	runFree int32
	runs    [][]int32
	done    *sim.Lane
	touched uint64

	stats Stats
	met   *metrics

	onPlace    func(j *workload.Job, s *cluster.Server)
	onComplete func(id int64, s *cluster.Server)
}

// queuedJob is one FIFO entry.
type queuedJob struct {
	job workload.Job
	at  sim.Time // when it was enqueued
}

// runningJob is one slab record: what complete, speedChanged and FailServer
// read of a running job, 64 bytes, one cache line. It holds no pointer (the
// server by ID), so the collector never scans the slab.
type runningJob struct {
	jobID int64 // the submitter's
	work  sim.Duration
	cpu   float64
	// remainingMS is full-speed work left, in (fractional) milliseconds.
	remainingMS float64
	startedAt   sim.Time
	lastUpdate  sim.Time
	// seq is the seq of the job's live completion entry on done; noSeq
	// while the slot is free.
	seq uint64
	// server is the cluster.ServerID; while the slot is free it links the
	// free list.
	server int32
}

// noSeq is the seq of no lane entry: the engine's counter never reaches it.
const noSeq = math.MaxUint64

// New builds a scheduler over c using the given placement policy (RandomFit
// when nil, matching the paper's statistically uniform placement).
func New(eng *sim.Engine, c *cluster.Cluster, seed uint64, policy Policy) *Scheduler {
	if policy == nil {
		policy = RandomFit{}
	}
	waitHist, err := stats.NewLogHistogram(1, float64(30*24*sim.Hour), 1200) // 1 ms … 30 days
	if err != nil {
		panic(err) // constants are valid; unreachable
	}
	stretchHist, err := stats.NewLogHistogram(0.5, 1000, 1200) // slowdown ×0.5 … ×1000
	if err != nil {
		panic(err) // likewise
	}
	s := &Scheduler{
		eng:         eng,
		c:           c,
		rng:         sim.SubRNG(seed, "scheduler"),
		policy:      policy,
		avail:       make([][]int32, c.Rows()),
		srv:         make([]struct{ pos, n int32 }, len(c.Servers)),
		perRow:      int32(c.Spec.ServersPerRow()),
		availTree:   newRowTree(c.Rows()),
		runs:        make([][]int32, c.Rows()),
		runFree:     -1,
		waitHist:    waitHist,
		stretchHist: stretchHist,
	}
	s.done = eng.NewLane(s.complete, s.live, s.touch)
	s.busyRow = make([]int, c.Rows())
	s.capRow = make([]int, c.Rows())
	for i, sv := range c.Servers {
		s.srv[i].pos = -1
		s.refreshAvail(int32(i), sv)
		s.capRow[sv.Row] += c.Spec.Containers
	}
	c.OnSpeedChange(s.speedChanged)
	return s
}

// metrics is the scheduler's optional observability wiring. All values are
// atomics updated on the hot path, so concurrent scrapes never race the
// simulation goroutine.
type metrics struct {
	freezeDur   *obs.Histogram
	unfreezeDur *obs.Histogram
	churn       *obs.Counter
	queueLen    *obs.Gauge
	submitted   *obs.Counter
	placed      *obs.Counter
	completed   *obs.Counter
	killed      *obs.Counter
	overflowed  *obs.Counter
	queued      *obs.Counter
}

// Instrument registers the scheduler's metrics on reg (nil is a no-op):
//
//	scheduler_freeze_api_duration_seconds{op}  summary, Freeze/Unfreeze latency
//	scheduler_candidate_churn_total            counter, candidate-list adds+removes
//	scheduler_queue_length                     gauge, jobs waiting for capacity
//	scheduler_jobs_submitted_total             counter
//	scheduler_jobs_placed_total                counter
//	scheduler_jobs_completed_total             counter
//	scheduler_jobs_killed_total                counter
//	scheduler_jobs_queued_total                counter, jobs that waited at least once
//	scheduler_jobs_overflowed_total            counter, placements outside preferred rows
//
// The last two mirror Stats.{Queued,Overflowed}, so a scrape and the JSON
// status API can never disagree.
//
// Call before the simulation starts.
func (s *Scheduler) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	opDur := reg.HistogramVec("scheduler_freeze_api_duration_seconds",
		"Wall-clock latency of scheduler Freeze/Unfreeze operations.",
		1e-8, 1, 300, "op")
	s.met = &metrics{
		freezeDur:   opDur.With("freeze"),
		unfreezeDur: opDur.With("unfreeze"),
		churn: reg.Counter("scheduler_candidate_churn_total",
			"Adds and removes on the per-row schedulable candidate lists."),
		queueLen:  reg.Gauge("scheduler_queue_length", "Jobs waiting for capacity."),
		submitted: reg.Counter("scheduler_jobs_submitted_total", "Jobs submitted."),
		placed:    reg.Counter("scheduler_jobs_placed_total", "Jobs placed on a server."),
		completed: reg.Counter("scheduler_jobs_completed_total", "Jobs completed."),
		killed: reg.Counter("scheduler_jobs_killed_total",
			"Jobs killed by server failures (breaker trips)."),
		queued: reg.Counter("scheduler_jobs_queued_total",
			"Jobs that had to wait in the queue at least once."),
		overflowed: reg.Counter("scheduler_jobs_overflowed_total",
			"Placements that landed outside the job's preferred rows."),
	}
}

// SetRowShaping selects the row-selection step of placement (Proportional
// until set).
func (s *Scheduler) SetRowShaping(rs RowShaping) { s.shaping = rs }

// RowUtilization returns row r's container occupancy in [0, 1].
func (s *Scheduler) RowUtilization(r int) float64 {
	if s.capRow[r] == 0 {
		return 0
	}
	return float64(s.busyRow[r]) / float64(s.capRow[r])
}

// Stats returns a copy of the activity counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// QueueLen returns the number of jobs waiting for capacity.
func (s *Scheduler) QueueLen() int { return len(s.queue) - s.queueHead }

// QueueWaitQuantile returns the q-th quantile (q in [0,1]) of the queue
// wait times of jobs that had to wait, or NaN when nothing waited. Jobs
// placed immediately contribute no sample — the metric quantifies the
// "letting them wait in the scheduler queue" cost of driving jobs away from
// hot rows.
func (s *Scheduler) QueueWaitQuantile(q float64) sim.Duration {
	v := s.waitHist.Quantile(q)
	if v != v { // NaN
		return 0
	}
	return sim.Duration(v)
}

// QueueWaits returns the number of recorded completed waits.
func (s *Scheduler) QueueWaits() int64 { return s.waitHist.Count() }

// StretchQuantile returns the q-th quantile (q in [0,1]) of completed jobs'
// slowdown factor (wall time / full-speed work); 1.0 means never throttled.
// Returns 0 before any completion.
func (s *Scheduler) StretchQuantile(q float64) float64 {
	v := s.stretchHist.Quantile(q)
	if v != v { // NaN
		return 0
	}
	return v
}

// ResetStretchStats clears the slowdown histogram so a measurement window
// can exclude warmup completions.
func (s *Scheduler) ResetStretchStats() { s.stretchHist = s.stretchHist.Fresh() }

// OnPlace registers a callback invoked after each successful placement. j is
// valid for the call only; do not retain *Job past the call.
func (s *Scheduler) OnPlace(fn func(j *workload.Job, sv *cluster.Server)) { s.onPlace = fn }

// OnComplete registers a callback invoked after each job completion with the
// job's ID and the server it ran on.
func (s *Scheduler) OnComplete(fn func(id int64, sv *cluster.Server)) { s.onComplete = fn }

// availability index maintenance

// refreshAvail puts server id (whose record is sv) in its row's candidate
// list when it is unfrozen, not failed and has a free container, and takes it
// out otherwise.
func (s *Scheduler) refreshAvail(id int32, sv *cluster.Server) {
	in := s.srv[id].pos != -1
	if in == (!sv.Frozen() && !sv.Failed() && sv.FreeContainers() >= 1) {
		return
	}
	r, _ := s.rowOf(id)
	list := s.avail[r]
	if in {
		i, last := s.srv[id].pos, list[len(list)-1]
		list[i] = last
		s.srv[last].pos = i
		s.avail[r] = list[:len(list)-1]
		s.srv[id].pos = -1
		s.availTree.add(r, -1)
	} else {
		s.srv[id].pos = int32(len(list))
		s.avail[r] = append(list, id)
		s.availTree.add(r, 1)
	}
	if s.met != nil {
		s.met.churn.Inc()
	}
}

// AvailableInRow returns the number of schedulable servers on row r.
func (s *Scheduler) AvailableInRow(r int) int { return len(s.avail[r]) }

// Freeze implements FreezeAPI. Freezing an already-frozen server is an
// error so the controller's bookkeeping bugs surface immediately.
func (s *Scheduler) Freeze(id cluster.ServerID) error {
	if s.met != nil {
		defer func(start time.Time) {
			s.met.freezeDur.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	if int(id) < 0 || int(id) >= len(s.c.Servers) {
		return fmt.Errorf("scheduler: freeze of unknown server %d", id)
	}
	sv := s.c.Server(id)
	if sv.Frozen() {
		return fmt.Errorf("scheduler: server %d already frozen", id)
	}
	sv.SetFrozen(true)
	s.refreshAvail(int32(id), sv)
	return nil
}

// Unfreeze implements FreezeAPI.
func (s *Scheduler) Unfreeze(id cluster.ServerID) error {
	if s.met != nil {
		defer func(start time.Time) {
			s.met.unfreezeDur.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	if int(id) < 0 || int(id) >= len(s.c.Servers) {
		return fmt.Errorf("scheduler: unfreeze of unknown server %d", id)
	}
	sv := s.c.Server(id)
	if !sv.Frozen() {
		return fmt.Errorf("scheduler: server %d not frozen", id)
	}
	sv.SetFrozen(false)
	s.refreshAvail(int32(id), sv)
	s.drainQueue()
	return nil
}

var _ FreezeAPI = (*Scheduler)(nil)

// Submit accepts a job for placement, queueing it when no server is
// schedulable. It is the workload generator's sink. The scheduler copies
// what it keeps of j, so the caller may reuse it once Submit returns.
func (s *Scheduler) Submit(j *workload.Job) {
	s.stats.Submitted++
	if s.met != nil {
		s.met.submitted.Inc()
	}
	if s.queueHead < len(s.queue) {
		// Preserve FIFO order behind already-waiting jobs.
		s.enqueue(j)
		return
	}
	if !s.tryPlace(j) {
		s.enqueue(j)
	}
}

func (s *Scheduler) enqueue(j *workload.Job) {
	s.stats.Queued++
	s.queue = append(s.queue, queuedJob{job: *j, at: s.eng.Now()})
	if s.met != nil {
		s.met.queued.Inc()
		s.met.queueLen.Set(float64(s.QueueLen()))
	}
}

// queueSlack is how many dead or spare queue entries drainQueue tolerates
// before it compacts or releases the array.
const queueSlack = 1024

func (s *Scheduler) drainQueue() {
	for s.queueHead < len(s.queue) {
		q := &s.queue[s.queueHead]
		at := q.at
		if !s.tryPlace(&q.job) {
			break
		}
		s.waitHist.Add(float64(s.eng.Now().Sub(at)))
		s.queueHead++
	}
	if s.queueHead == len(s.queue) {
		// Empty: rewind, and let go of an array a surge's backlog grew — the
		// entries are jobs by value, and surges are rare.
		if cap(s.queue) > queueSlack {
			s.queue = nil
		} else {
			s.queue = s.queue[:0]
		}
		s.queueHead = 0
	} else if s.queueHead > queueSlack && s.queueHead*2 > len(s.queue) {
		n := copy(s.queue, s.queue[s.queueHead:])
		s.queue = s.queue[:n]
		s.queueHead = 0
	}
	if s.met != nil {
		s.met.queueLen.Set(float64(s.QueueLen()))
	}
}

// tryPlace attempts to place j, returning false when no server is
// schedulable anywhere.
func (s *Scheduler) tryPlace(j *workload.Job) bool {
	row, overflow := s.chooseRow(j)
	if row < 0 {
		return false
	}
	id := s.policy.Pick(s.rng, j, s.avail[row])
	if id < 0 {
		return false
	}
	if overflow {
		s.stats.Overflowed++
		if s.met != nil {
			s.met.overflowed.Inc()
		}
	}
	s.place(j, id)
	return true
}

// chooseRow picks a row by the installed shaping among the rows the job's
// product affinity allows — by default with probability proportional to
// weight times schedulable-server count, the paper's "jobs scheduled to a row
// ∝ available servers of the row". The second return value reports that the
// job's preferred rows were all full and the choice fell back to unweighted
// rows.
func (s *Scheduler) chooseRow(j *workload.Job) (int, bool) {
	weights := s.productWeights(j)
	if weights.w != nil {
		if row := s.pickRow(weights); row >= 0 {
			return row, false
		}
	}
	// No affinity, or the preferred rows are full or weightless: any row
	// with space.
	row := s.pickRow(rowWeights{})
	return row, row >= 0 && weights.w != nil
}

// pickRow selects a row among those with positive weight and a schedulable
// server, or returns −1 when there is none.
func (s *Scheduler) pickRow(weights rowWeights) int {
	switch {
	case s.shaping != Proportional:
		best := -1
		for r := range s.avail {
			if weights.at(r) <= 0 || len(s.avail[r]) == 0 {
				continue
			}
			if best < 0 ||
				(s.shaping == BalanceRows && s.RowUtilization(r) < s.RowUtilization(best)) ||
				(s.shaping == ConcentrateRows && s.RowUtilization(r) > s.RowUtilization(best)) {
				best = r
			}
		}
		return best
	case weights.w == nil:
		return s.pickRowByTree()
	}
	return s.pickWeightedRow(weights)
}

// pickWeightedRow samples a row with probability proportional to its weight
// times len(avail[r]). Returns −1 when no row is eligible.
func (s *Scheduler) pickWeightedRow(weights rowWeights) int {
	total := 0.0
	for r := range s.avail {
		total += weights.at(r) * float64(len(s.avail[r]))
	}
	if total <= 0 {
		return -1
	}
	x := s.rng.Float64() * total
	for r := range s.avail {
		x -= weights.at(r) * float64(len(s.avail[r]))
		if x < 0 {
			return r
		}
	}
	// Floating-point slack: fall through to the last eligible row.
	for r := len(s.avail) - 1; r >= 0; r-- {
		if weights.at(r) > 0 && len(s.avail[r]) > 0 {
			return r
		}
	}
	return -1
}

// pickRowByTree is pickWeightedRow for unit weights: the same single draw
// x = U·total (none when no server is schedulable), then the first row whose
// prefix sum of counts exceeds x. The scan finds that row by subtracting
// counts from x until it goes negative; x is below 2⁵³ and the counts are
// integers, so every subtraction that stays non-negative is exact and the
// scan's answer is the exact one — the tree's. When x rounds up to total both
// take the last row with a server.
func (s *Scheduler) pickRowByTree() int {
	t := &s.availTree
	if t.total <= 0 {
		return -1
	}
	row := t.find(s.rng.Float64() * float64(t.total))
	if row == len(s.avail) {
		for row--; len(s.avail[row]) == 0; row-- {
		}
	}
	return row
}

type rowWeights struct {
	w []float64 // nil means uniform
}

func (rw rowWeights) at(r int) float64 {
	if rw.w == nil {
		return 1
	}
	if r >= len(rw.w) {
		return 0
	}
	return rw.w[r]
}

// productWeights returns the job's row-affinity weights. The scheduler keeps
// no product table; weights travel on the jobs' product registered via
// SetProductWeights.
func (s *Scheduler) productWeights(j *workload.Job) rowWeights {
	if j.Product >= 0 && j.Product < len(s.productRows) {
		return rowWeights{w: s.productRows[j.Product]}
	}
	return rowWeights{}
}

// SetProductWeights installs the per-product row-affinity table. Index p
// corresponds to workload Product index p; nil entries mean uniform. A
// weight must be finite and not negative (0 keeps the product off the row):
// a NaN or infinite one would turn the row draw's total into NaN or +Inf,
// and a negative one would cancel other rows' weight. An invalid table is
// refused and the installed one kept.
func (s *Scheduler) SetProductWeights(table [][]float64) error {
	for p, w := range table {
		for r, x := range w {
			if !(x >= 0) || math.IsInf(x, 1) {
				return fmt.Errorf("scheduler: product %d has row weight %v for row %d, want a finite number ≥ 0", p, x, r)
			}
		}
	}
	s.productRows = table
	return nil
}

func (s *Scheduler) place(j *workload.Job, id int32) {
	sv := s.c.Server(cluster.ServerID(id))
	sv.Allocate(1, j.CPU)
	r, _ := s.rowOf(id)
	s.busyRow[r]++
	s.refreshAvail(id, sv)
	s.stats.Placed++
	if s.met != nil {
		s.met.placed.Inc()
	}

	slot := s.holdRunning(runningJob{
		jobID:       j.ID,
		work:        j.Work,
		cpu:         j.CPU,
		server:      id,
		remainingMS: float64(j.Work),
		startedAt:   s.eng.Now(),
		lastUpdate:  s.eng.Now(),
	})
	s.scheduleCompletion(slot)

	if s.onPlace != nil {
		s.onPlace(j, sv)
	}
}

// holdRunning stores rj in the slab, appends it to its server's run list and
// returns its slot.
func (s *Scheduler) holdRunning(rj runningJob) int32 {
	id, stride := rj.server, s.c.Spec.Containers
	r, i := s.rowOf(id)
	page := s.runs[r]
	if page == nil {
		page = make([]int32, int(s.perRow)*stride)
		s.runs[r] = page
	}
	slot := s.runFree
	if slot >= 0 {
		s.runFree = s.run.At(slot).server
	} else {
		slot = s.run.Add()
	}
	*s.run.At(slot) = rj
	page[i*stride+int(s.srv[id].n)] = slot
	s.srv[id].n++
	return slot
}

// runList returns the slab slots of the jobs running on server id, in
// run-list order.
func (s *Scheduler) runList(id int32) []int32 {
	n := s.srv[id].n
	if n == 0 {
		return nil // the row's page may not exist yet
	}
	r, i := s.rowOf(id)
	lo := i * s.c.Spec.Containers
	return s.runs[r][lo : lo+int(n)]
}

// rowOf returns server id's row and its index on the row.
func (s *Scheduler) rowOf(id int32) (row, i int) { return int(id / s.perRow), int(id % s.perRow) }

func (s *Scheduler) scheduleCompletion(slot int32) {
	rj := s.run.At(slot)
	speed := s.c.Server(cluster.ServerID(rj.server)).Speed()
	wall := sim.Duration(rj.remainingMS/speed + 0.5)
	if wall < 0 {
		wall = 0
	}
	rj.seq = s.done.At(s.eng.Now().Add(wall), slot)
}

// live says whether the completion entry (slot, seq) is still due: the slot
// is running the job that entry was scheduled for, and no later
// rescheduling replaced it.
func (s *Scheduler) live(slot int32, seq uint64) bool { return s.run.At(slot).seq == seq }

// touch is the completion lane's touch hook (see sim.Lane): it loads the
// running-job record that live reads for each completion in ahead and, for
// each in near, whose record an earlier touch loaded, the lines complete
// reads: the server's record and sample column entry, its srv entry and its
// run list. The loads of a block do not depend on each other, so their cache
// misses overlap. A dead entry's slot may be free, its server a free-list
// link, −1 or past the fleet, so the server ID is checked before use.
func (s *Scheduler) touch(ahead, near []int32) {
	sink := s.touched
	for _, slot := range ahead {
		sink += s.run.At(slot).seq
	}
	stride := s.c.Spec.Containers
	for _, slot := range near {
		id := s.run.At(slot).server
		if uint(id) >= uint(len(s.srv)) {
			continue
		}
		sv := s.c.Server(cluster.ServerID(id))
		sink += uint64(sv.Busy()) + math.Float64bits(sv.DrawW()) + uint64(s.srv[id].n)
		if r, i := s.rowOf(id); s.runs[r] != nil {
			sink += uint64(s.runs[r][i*stride])
		}
	}
	s.touched = sink
}

func (s *Scheduler) complete(now sim.Time, slot int32) {
	rj := s.run.At(slot)
	id := rj.server
	sv := s.c.Server(cluster.ServerID(id))
	// Swap-remove the slot from the server's run list. A scan finds it (at
	// most Containers entries, one cache line at 16): an index kept in each
	// slab record would cost a write to the moved job's record.
	list := s.runList(id)
	i := 0
	for list[i] != slot {
		i++
	}
	list[i] = list[len(list)-1]
	s.srv[id].n--

	sv.Release(1, rj.cpu)
	r, _ := s.rowOf(id)
	s.busyRow[r]--
	s.refreshAvail(id, sv)
	s.stats.Completed++
	if s.met != nil {
		s.met.completed.Inc()
	}
	if rj.work > 0 {
		s.stretchHist.Add(float64(now.Sub(rj.startedAt)) / float64(rj.work))
	}
	if s.onComplete != nil {
		s.onComplete(rj.jobID, sv)
	}
	// Recycle only now: the drain below may take the slot for the next
	// placement.
	s.freeRunning(slot)
	s.drainQueue()
}

// freeRunning returns a slab slot to the free list. Its completion entry,
// if still pending, is dead from here on: no seq matches noSeq.
func (s *Scheduler) freeRunning(slot int32) {
	rj := s.run.At(slot)
	rj.seq, rj.server = noSeq, s.runFree
	s.runFree = slot
}

// speedChanged reschedules the completions of every job running on sv after
// a DVFS frequency change: elapsed wall-clock time is converted to consumed
// work at the old speed, and the remainder is replayed at the new speed. The
// new entry's seq replaces the old one's in the record, which is what
// cancels the old entry.
func (s *Scheduler) speedChanged(sv *cluster.Server, oldSpeed float64) {
	now := s.eng.Now()
	for _, slot := range s.runList(int32(sv.ID)) {
		rj := s.run.At(slot)
		elapsed := float64(now.Sub(rj.lastUpdate))
		rj.remainingMS -= elapsed * oldSpeed
		if rj.remainingMS < 0 {
			rj.remainingMS = 0
		}
		rj.lastUpdate = now
		s.scheduleCompletion(slot)
	}
}

// RunningJobs returns the number of jobs currently executing on server id.
func (s *Scheduler) RunningJobs(id cluster.ServerID) int { return int(s.srv[id].n) }

// Reserve permanently allocates containers on a specific server, bypassing
// placement. The service substrate uses it to pin long-running
// latency-critical instances (§4.3). It keeps the availability index
// consistent, which direct cluster.Server.Allocate calls would not.
func (s *Scheduler) Reserve(id cluster.ServerID, containers int, cpu float64) error {
	if int(id) < 0 || int(id) >= len(s.c.Servers) {
		return fmt.Errorf("scheduler: reserve on unknown server %d", id)
	}
	if containers < 0 {
		return fmt.Errorf("scheduler: reserve of negative container count %d on server %d", containers, id)
	}
	if !(cpu >= 0) || math.IsInf(cpu, 1) {
		return fmt.Errorf("scheduler: reserve of CPU demand %v on server %d, want a finite value ≥ 0", cpu, id)
	}
	sv := s.c.Server(id)
	if sv.Failed() {
		return fmt.Errorf("scheduler: reserve on failed server %d", id)
	}
	if sv.FreeContainers() < containers {
		return fmt.Errorf("scheduler: server %d has %d free containers, need %d",
			id, sv.FreeContainers(), containers)
	}
	sv.Allocate(containers, cpu)
	s.busyRow[sv.Row] += containers
	s.refreshAvail(int32(id), sv)
	return nil
}

// FailServer powers a server off: every running job on it is killed (its
// containers released, its completion cancelled, Stats.Killed incremented)
// and the server leaves the candidate list until RepairServer. This is the
// blast radius of a breaker trip.
func (s *Scheduler) FailServer(id cluster.ServerID) error {
	if int(id) < 0 || int(id) >= len(s.c.Servers) {
		return fmt.Errorf("scheduler: fail of unknown server %d", id)
	}
	sv := s.c.Server(id)
	if sv.Failed() {
		return fmt.Errorf("scheduler: server %d already failed", id)
	}
	for _, slot := range s.runList(int32(id)) {
		sv.Release(1, s.run.At(slot).cpu)
		s.busyRow[sv.Row]--
		s.stats.Killed++
		if s.met != nil {
			s.met.killed.Inc()
		}
		s.freeRunning(slot)
	}
	s.srv[id].n = 0
	sv.SetFailed(true)
	s.refreshAvail(int32(id), sv)
	return nil
}

// RepairServer powers a failed server back on and makes it schedulable.
func (s *Scheduler) RepairServer(id cluster.ServerID) error {
	if int(id) < 0 || int(id) >= len(s.c.Servers) {
		return fmt.Errorf("scheduler: repair of unknown server %d", id)
	}
	sv := s.c.Server(id)
	if !sv.Failed() {
		return fmt.Errorf("scheduler: server %d not failed", id)
	}
	sv.SetFailed(false)
	s.refreshAvail(int32(id), sv)
	s.drainQueue()
	return nil
}
