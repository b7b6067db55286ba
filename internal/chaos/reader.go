package chaos

import (
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// Reader wraps a core.PowerReader with read-path faults. It also implements
// core.TimedPowerReader, so a resilient controller sees blackout staleness
// through sample timestamps while a naive one silently consumes the frozen
// snapshot — the same asymmetry a real monitor outage produces.
//
// mu guards the snapshot caches and injector counters, so a Reader is safe
// to share across goroutines. Fault decisions themselves are pure hashes of
// (seed, time, salt) — they stay deterministic whatever the interleaving.
type Reader struct {
	in    *Injector
	inner core.PowerReader
	timed core.TimedPowerReader // non-nil when inner carries sample times

	mu      sync.Mutex
	groups  map[uint64]sample // last healthy reading per group
	servers map[cluster.ServerID]sample
}

type sample struct {
	v  float64
	at sim.Time
}

// WrapReader interposes the injector on a power reader.
func (in *Injector) WrapReader(r core.PowerReader) *Reader {
	cr := &Reader{
		in:      in,
		inner:   r,
		groups:  make(map[uint64]sample),
		servers: make(map[cluster.ServerID]sample),
	}
	cr.timed, _ = r.(core.TimedPowerReader)
	return cr
}

// groupKey folds a server set into a stable cache key.
func groupKey(ids []cluster.ServerID) uint64 {
	x := uint64(len(ids))
	for _, id := range ids {
		x ^= uint64(id) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
	}
	return x
}

// sampleTime reports when inner's current snapshot was taken (now for
// untimed readers).
func (r *Reader) sampleTime(ids []cluster.ServerID, now sim.Time) sim.Time {
	if r.timed != nil {
		if t, ok := r.timed.GroupSampleTime(ids); ok {
			return t
		}
	}
	return now
}

// GroupPower implements core.PowerReader with faults applied.
func (r *Reader) GroupPower(ids []cluster.ServerID) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.in.eng.Now()
	key := groupKey(ids)
	if _, on := r.in.anyActive(ReadBlackout, now); on {
		s, ok := r.groups[key]
		if !ok {
			return 0, false // blackout before the first healthy sample
		}
		r.in.stats.ReadsBlackedOut++
		if r.in.met != nil {
			r.in.met.readsBlackedOut.Inc()
		}
		return s.v, true
	}
	v, ok := r.inner.GroupPower(ids)
	if !ok {
		return 0, false
	}
	r.groups[key] = sample{v: v, at: r.sampleTime(ids, now)}
	for _, f := range r.in.faultsOf(ReadNaN, now) {
		if r.in.decide(ReadNaN, now, key, f.Rate) {
			r.in.stats.ReadsNaN++
			if r.in.met != nil {
				r.in.met.readsNaN.Inc()
			}
			return math.NaN(), true
		}
	}
	for _, f := range r.in.faultsOf(ReadOutlier, now) {
		if r.in.decide(ReadOutlier, now, key, f.Rate) {
			r.in.stats.ReadsOutlier++
			if r.in.met != nil {
				r.in.met.readsOutlier.Inc()
			}
			return v * f.Factor, true
		}
	}
	return v, true
}

// ServerPower implements core.PowerReader. Ranking reads see the same
// blackout and corruption faults as group reads.
func (r *Reader) ServerPower(id cluster.ServerID) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.in.eng.Now()
	if _, on := r.in.anyActive(ReadBlackout, now); on {
		s, ok := r.servers[id]
		if !ok {
			return 0, false
		}
		return s.v, true
	}
	v, ok := r.inner.ServerPower(id)
	if !ok {
		return 0, false
	}
	r.servers[id] = sample{v: v, at: now}
	for _, f := range r.in.faultsOf(ReadNaN, now) {
		if r.in.decide(ReadNaN, now, uint64(id)+1, f.Rate) {
			return math.NaN(), true
		}
	}
	for _, f := range r.in.faultsOf(ReadOutlier, now) {
		if r.in.decide(ReadOutlier, now, uint64(id)+1, f.Rate) {
			return v * f.Factor, true
		}
	}
	return v, true
}

// GroupSampleTime implements core.TimedPowerReader: during a blackout the
// reported time is the frozen snapshot's, and lag faults age it further.
func (r *Reader) GroupSampleTime(ids []cluster.ServerID) (sim.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.in.eng.Now()
	at := r.sampleTime(ids, now)
	if _, on := r.in.anyActive(ReadBlackout, now); on {
		s, ok := r.groups[groupKey(ids)]
		if !ok {
			return 0, false
		}
		at = s.at
	}
	if f, on := r.in.anyActive(ReadLag, now); on {
		r.in.stats.ReadsLagged++
		if r.in.met != nil {
			r.in.met.readsLagged.Inc()
		}
		at = at.Add(-f.Lag)
	}
	return at, true
}
