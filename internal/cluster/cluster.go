// Package cluster models the physical data center the paper's controller
// manages: servers grouped into racks, racks into PDU-fed rows, rows into a
// data center. Each server draws power as a function of its utilization
// between an idle floor and a rated peak, can be frozen (refused new jobs),
// and can be power-capped (DVFS frequency scaling), exactly the three knobs
// the paper's evaluation exercises.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// ServerID identifies a server within a Cluster. IDs are dense, starting at
// zero, assigned row-major (row, then rack, then slot) so that the paper's
// parity-based controlled-experiment grouping (§4.1.2) interleaves racks.
type ServerID int

// Spec describes the hardware and topology parameters of a cluster. The
// defaults follow the paper's §2.1 numbers: 250 W rated servers, 40 servers
// per 10 kW rack, 20 racks per row-level PDU.
type Spec struct {
	Rows           int
	RacksPerRow    int
	ServersPerRack int

	// RatedPowerW is the measured maximum power draw of one server (the
	// paper's "rated power", not the higher nameplate power).
	RatedPowerW float64
	// IdlePowerW is the draw of an idle server. Calibrated to 0.60 of
	// rated: the paper's Fig 4 shows frozen servers settling near 0.68 of
	// rated while still holding a tail of long jobs, and its Table 3 shows
	// whole rows as low as 0.65 of rated on light days, so true idle must
	// sit below that.
	IdlePowerW float64
	// Containers is the number of resource containers the two-level
	// scheduler can allocate on one server.
	Containers int
	// NoiseSigmaW and NoisePhi parameterize the AR(1) per-server power
	// measurement noise added to monitor samples.
	NoiseSigmaW float64
	NoisePhi    float64
	// RatedJitterFrac introduces manufacturing variance: each server's
	// rated and idle power are scaled by an independent uniform factor in
	// [1−j, 1+j]. The paper provisions on *measured* rated power precisely
	// because real fleets are not perfectly uniform. Zero (default) keeps
	// servers identical.
	RatedJitterFrac float64
}

// DefaultSpec returns the paper-faithful topology: one row of 20 racks by
// default (the controlled experiments use a single row with 400+ servers).
func DefaultSpec() Spec {
	return Spec{
		Rows:           1,
		RacksPerRow:    20,
		ServersPerRack: 20,
		RatedPowerW:    250,
		IdlePowerW:     150,
		Containers:     16,
		NoiseSigmaW:    2.0,
		NoisePhi:       0.5,
	}
}

// Validate reports configuration errors.
func (sp Spec) Validate() error {
	switch {
	case sp.Rows <= 0 || sp.RacksPerRow <= 0 || sp.ServersPerRack <= 0:
		return fmt.Errorf("cluster: topology must be positive, got %d×%d×%d",
			sp.Rows, sp.RacksPerRow, sp.ServersPerRack)
	case sp.RatedPowerW <= 0:
		return fmt.Errorf("cluster: rated power %v must be positive", sp.RatedPowerW)
	case sp.IdlePowerW < 0 || sp.IdlePowerW >= sp.RatedPowerW:
		return fmt.Errorf("cluster: idle power %v must be in [0, rated %v)", sp.IdlePowerW, sp.RatedPowerW)
	case sp.Containers <= 0 || sp.Containers > math.MaxInt32:
		return fmt.Errorf("cluster: containers %d outside [1, %d]", sp.Containers, math.MaxInt32)
	case sp.NoiseSigmaW < 0:
		return fmt.Errorf("cluster: noise sigma %v must be non-negative", sp.NoiseSigmaW)
	case !(sp.NoisePhi > -1 && sp.NoisePhi < 1):
		// Outside (−1, 1) the AR(1) process has no stationary variance:
		// √(1−φ²) is NaN and every sampled watt with it.
		return fmt.Errorf("cluster: noise phi %v outside (-1, 1)", sp.NoisePhi)
	case sp.RatedJitterFrac < 0 || sp.RatedJitterFrac >= 0.5:
		return fmt.Errorf("cluster: rated jitter %v outside [0, 0.5)", sp.RatedJitterFrac)
	}
	return nil
}

// ServersPerRow returns the number of servers on one row.
func (sp Spec) ServersPerRow() int { return sp.RacksPerRow * sp.ServersPerRack }

// TotalServers returns the number of servers in the whole cluster.
func (sp Spec) TotalServers() int { return sp.Rows * sp.ServersPerRow() }

// RowRatedPowerW returns the total rated power of one row's servers; with
// rated-power provisioning this equals the row's PDU budget (PM = n·Pm).
func (sp Spec) RowRatedPowerW() float64 {
	return float64(sp.ServersPerRow()) * sp.RatedPowerW
}

// Server is one machine. Its fields are managed by the scheduler (busy,
// frozen), the capping subsystem (speed, cap), and the workload executor;
// the power monitor reads it.
//
// A Server is one 80-byte record of the cluster's slab and owns no heap
// object: what is the same for every server (the spec, the noise
// parameters, the speed listeners) lives once on the Cluster it points at,
// and what the monitor's sweep reads and writes — the draw, the noise state
// — lives in the cluster's sample column, so a sweep never loads the
// record. At a million servers a word here is 8 MB and a pointer is also a
// word the collector must trace.
type Server struct {
	ID   ServerID
	Row  int
	Rack int // rack index within the row

	c *Cluster
	// ratedW and idleW are this server's measured power parameters (equal
	// to the spec values unless RatedJitterFrac is set).
	ratedW, idleW float64

	cpuLoad float64 // sum of running jobs' CPU demand, in container units
	busy    int32   // allocated containers (Spec.Containers fits an int32)
	frozen  bool
	failed  bool // powered off (breaker trip / outage)

	speed     float64 // DVFS frequency factor in (0, 1]; 1 = full speed
	capLevelW float64 // 0 means uncapped
}

// sampleState is one server's entry in the cluster's sample column: all a
// monitor sweep touches, 24 bytes. drawW is DrawW, stored: every method that
// changes one of its inputs (Allocate, Release, SetFailed, ApplyCap,
// RemoveCap) refreshes it, and a new writer of those inputs must too.
// noiseX and noiseRNG are the AR(1) measurement-noise process: its current
// value and the SplitMix64 state of the server's own random stream.
type sampleState struct {
	drawW    float64
	noiseX   float64
	noiseRNG uint64
}

// Spec returns the cluster spec the server was built with.
func (s *Server) Spec() *Spec { return &s.c.Spec }

// Busy returns the number of allocated containers.
func (s *Server) Busy() int { return int(s.busy) }

// FreeContainers returns the number of unallocated containers.
func (s *Server) FreeContainers() int { return s.c.Spec.Containers - int(s.busy) }

// Frozen reports whether the server is advised out of the candidate list.
func (s *Server) Frozen() bool { return s.frozen }

// SetFrozen marks or unmarks the server as frozen. Freezing never touches
// running jobs; it only affects future placement (the paper's key property).
func (s *Server) SetFrozen(f bool) { s.frozen = f }

// Failed reports whether the server is powered off (a breaker trip is the
// "catastrophic service disruption" §2.1 warns about).
func (s *Server) Failed() bool { return s.failed }

// SetFailed powers the server off or back on. The scheduler owns the job
// consequences (killing and restoring); this only flips the electrical
// state: a failed server draws no power.
func (s *Server) SetFailed(f bool) {
	s.failed = f
	s.refreshDraw()
}

// Allocate reserves n containers carrying the given total CPU demand
// (in container units). It panics when over-allocated: placement above
// capacity is a scheduler bug, not a runtime condition.
func (s *Server) Allocate(n int, cpu float64) {
	if n < 0 || n > s.FreeContainers() {
		panic(fmt.Sprintf("cluster: allocating %d containers on server %d with %d busy of %d",
			n, s.ID, s.busy, s.c.Spec.Containers))
	}
	s.busy += int32(n)
	s.cpuLoad += cpu
	s.refreshDraw()
}

// Release frees n containers and cpu demand previously allocated.
func (s *Server) Release(n int, cpu float64) {
	if n < 0 || n > int(s.busy) {
		panic(fmt.Sprintf("cluster: releasing %d containers on server %d with %d busy", n, s.ID, s.busy))
	}
	s.busy -= int32(n)
	s.cpuLoad -= cpu
	if s.cpuLoad < 1e-9 {
		s.cpuLoad = 0
	}
	s.refreshDraw()
}

// Utilization returns the CPU utilization in [0, 1].
func (s *Server) Utilization() float64 {
	u := s.cpuLoad / float64(s.c.Spec.Containers)
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return u
}

// RatedW returns this server's measured rated power.
func (s *Server) RatedW() float64 { return s.ratedW }

// IdleW returns this server's idle power.
func (s *Server) IdleW() float64 { return s.idleW }

// DemandW is the power the server wants to draw at full frequency: a linear
// function of utilization between idle and rated power. A failed server
// draws nothing.
func (s *Server) DemandW() float64 {
	if s.failed {
		return 0
	}
	return s.idleW + (s.ratedW-s.idleW)*s.Utilization()
}

// DrawW is the power actually drawn after capping clamps the demand.
func (s *Server) DrawW() float64 { return s.c.samples[s.ID].drawW }

// refreshDraw stores the draw the server's current state implies in its
// sample column entry. Every writer of an input of the draw calls it.
func (s *Server) refreshDraw() {
	d := s.DemandW()
	if s.capLevelW > 0 && d > s.capLevelW {
		d = s.capLevelW
	}
	s.c.samples[s.ID].drawW = d
}

// SamplePower returns one monitor measurement: the draw plus one step of the
// AR(1) measurement-noise process, floored at zero. Call once per sampling
// interval; repeated calls advance the noise process.
//
// The step is x ← φ·x + σ·√(1−φ²)·N(0,1), scaled so the stationary standard
// deviation is σ. The normal is drawn from the server's own stream, the one
// sim.SubRNG(seed, "server-noise-<id>") would generate, bit for bit. A server
// is sampled by one goroutine at a time; servers are independent.
func (s *Server) SamplePower() float64 {
	var p [1]float64
	s.c.SamplePowers(s.ID, p[:])
	return p[0]
}

// SamplePowers is SamplePower of each server lo, lo+1, …, lo+len(out)−1,
// written to out in ID order. It reads and writes only those servers' sample
// column entries, never a Server record: the monitor's sweep samples a row
// with one call.
func (c *Cluster) SamplePowers(lo ServerID, out []float64) {
	col := c.samples[lo : int(lo)+len(out)]
	phi, innovW := c.Spec.NoisePhi, c.noiseInnovW
	for i := range col {
		st := &col[i]
		p := st.drawW
		if innovW > 0 {
			// sim.NormFloat64, with its fast path inlined into this loop.
			n, ok := sim.NormFast(&st.noiseRNG)
			if !ok {
				n = sim.NormTail(&st.noiseRNG)
			}
			st.noiseX = phi*st.noiseX + innovW*n
			p += st.noiseX
		}
		if p < 0 {
			p = 0
		}
		out[i] = p
	}
}

// Speed returns the DVFS frequency factor in (0, 1].
func (s *Server) Speed() float64 { return s.speed }

// Capped reports whether a power cap is currently applied.
func (s *Server) Capped() bool { return s.capLevelW > 0 }

// CapLevelW returns the active cap in watts, or 0 when uncapped.
func (s *Server) CapLevelW() float64 { return s.capLevelW }

// ApplyCap clamps the server's power draw to levelW and derives the
// frequency factor DVFS must drop to so demand fits under the cap. The
// factor scales the active (above-idle) power linearly with frequency.
func (s *Server) ApplyCap(levelW float64) {
	if !(levelW > 0) || math.IsInf(levelW, 1) {
		panic(fmt.Sprintf("cluster: cap %v on server %d is not a positive finite level", levelW, s.ID))
	}
	old := s.speed
	s.capLevelW = levelW
	d := s.DemandW()
	switch {
	case d <= levelW:
		s.speed = 1
	case levelW <= s.idleW:
		// Cap below idle: hardware floors at a minimum frequency; model as 10%.
		s.speed = 0.1
	default:
		s.speed = (levelW - s.idleW) / (d - s.idleW)
		if s.speed < 0.1 {
			s.speed = 0.1
		}
	}
	s.refreshDraw()
	s.notifySpeed(old)
}

// RemoveCap restores full frequency.
func (s *Server) RemoveCap() {
	old := s.speed
	s.capLevelW = 0
	s.speed = 1
	s.refreshDraw()
	s.notifySpeed(old)
}

// OnSpeedChange registers a listener notified whenever this server's DVFS
// frequency factor changes; the interactive-service substrate uses it to
// stretch request service times on the servers it occupies. Listeners run
// after the fleet-wide ones (Cluster.OnSpeedChange), in registration order,
// and stay for the cluster's lifetime.
func (s *Server) OnSpeedChange(fn func(s *Server, oldSpeed float64)) {
	c := s.c
	if c.serverListeners == nil {
		c.serverListeners = make(map[ServerID][]func(s *Server, oldSpeed float64))
	}
	c.serverListeners[s.ID] = append(c.serverListeners[s.ID], fn)
}

func (s *Server) notifySpeed(old float64) {
	if s.speed == old {
		return
	}
	for _, fn := range s.c.fleetListeners {
		fn(s, old)
	}
	for _, fn := range s.c.serverListeners[s.ID] {
		fn(s, old)
	}
}

// Cluster is the full topology.
type Cluster struct {
	Spec Spec
	// Servers[id] points into one slab of Server records allocated by New
	// and never grown, so a *Server is stable for the cluster's lifetime.
	// IDs are row-major and rack-contiguous: a row and a rack are subslices.
	Servers []*Server
	// slab is the record array Servers points into. Server(id) indexes it,
	// so a record's address is computed from its ID rather than loaded.
	slab []Server

	// samples[id] is server id's sample column entry; noiseInnovW is
	// σ·√(1−φ²), the innovation scale; 0 turns noise off.
	samples     []sampleState
	noiseInnovW float64

	// fleetListeners hear every server's speed changes; serverListeners[id]
	// only server id's, and has entries only for servers someone subscribed
	// to (the few a service instance sits on), so the fleet pays nothing.
	fleetListeners  []func(s *Server, oldSpeed float64)
	serverListeners map[ServerID][]func(s *Server, oldSpeed float64)
}

// New builds a cluster from spec, seeding each server's measurement-noise
// stream from the master seed: server id's stream is the one
// sim.SubRNG(seed, "server-noise-<id>") generates, its jitter factor the
// first Float64 of sim.SubRNG(seed, "server-jitter-<id>").
func New(spec Spec, seed uint64) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Spec: spec}
	c.noiseInnovW = spec.NoiseSigmaW * math.Sqrt(1-spec.NoisePhi*spec.NoisePhi)
	slab := make([]Server, spec.TotalServers())
	c.slab = slab
	c.Servers = make([]*Server, len(slab))
	c.samples = make([]sampleState, len(slab))
	perRow := spec.ServersPerRow()
	for i := range slab {
		jitter := 1.0
		if spec.RatedJitterFrac > 0 {
			jitterRNG := sim.RNGState(sim.SubSeedN(seed, "server-jitter-", i))
			jitter = 1 + (sim.Float64(&jitterRNG)*2-1)*spec.RatedJitterFrac
		}
		slab[i] = Server{
			ID: ServerID(i), Row: i / perRow, Rack: i % perRow / spec.ServersPerRack,
			c: c, speed: 1,
			ratedW: spec.RatedPowerW * jitter,
			idleW:  spec.IdlePowerW * jitter,
		}
		c.Servers[i] = &slab[i]
		c.samples[i].noiseRNG = sim.RNGState(sim.SubSeedN(seed, "server-noise-", i))
		slab[i].refreshDraw()
	}
	return c, nil
}

// OnSpeedChange registers a listener notified whenever any server's DVFS
// frequency factor changes. The job executor uses it to reschedule in-flight
// completions: one registration for the fleet, where a listener per server
// would be a million copies of the same method value. Fleet-wide listeners
// run before a server's own, in registration order, and stay for the
// cluster's lifetime.
func (c *Cluster) OnSpeedChange(fn func(s *Server, oldSpeed float64)) {
	c.fleetListeners = append(c.fleetListeners, fn)
}

// Row returns the servers on row r, in ID order.
func (c *Cluster) Row(r int) []*Server {
	n := c.Spec.ServersPerRow()
	return c.Servers[r*n : (r+1)*n : (r+1)*n]
}

// RowIDs returns the IDs of row r's servers, in ID order, in a fresh slice
// the caller owns (controller domains and tracker groups keep it).
func (c *Cluster) RowIDs(r int) []ServerID {
	row := c.Row(r)
	ids := make([]ServerID, len(row))
	for i, sv := range row {
		ids[i] = sv.ID
	}
	return ids
}

// Rack returns the servers of rack k on row r, in ID order.
func (c *Cluster) Rack(r, k int) []*Server {
	n := c.Spec.ServersPerRack
	lo := (r*c.Spec.RacksPerRow + k) * n
	return c.Servers[lo : lo+n : lo+n]
}

// Rows returns the number of rows.
func (c *Cluster) Rows() int { return c.Spec.Rows }

// Server returns the server with the given ID.
func (c *Cluster) Server(id ServerID) *Server { return &c.slab[id] }

// RowDrawW returns the instantaneous true power draw of row r (sum of server
// draws, before measurement noise). The PDU breaker and the capping safety
// net act on this quantity.
func (c *Cluster) RowDrawW(r int) float64 {
	n := c.Spec.ServersPerRow()
	var sum float64
	for _, st := range c.samples[r*n : (r+1)*n] {
		sum += st.drawW
	}
	return sum
}

// RackDrawW returns the true draw of rack k on row r. The rack-major index
// makes this O(servers-per-rack) rather than a filtered scan of the whole
// row; iteration stays in ID order, so the floating-point sum is identical
// to the historical scan.
func (c *Cluster) RackDrawW(r, k int) float64 {
	n := c.Spec.ServersPerRack
	lo := (r*c.Spec.RacksPerRow + k) * n
	var sum float64
	for _, st := range c.samples[lo : lo+n] {
		sum += st.drawW
	}
	return sum
}

// TotalDrawW returns the true draw of the whole data center.
func (c *Cluster) TotalDrawW() float64 {
	var sum float64
	for r := 0; r < c.Rows(); r++ {
		sum += c.RowDrawW(r)
	}
	return sum
}
