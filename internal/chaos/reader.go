package chaos

import (
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// Reader wraps a core.PowerReader with read-path faults. Its sample
// timestamps freeze in a blackout, so a resilient controller sees the
// staleness while a naive one silently consumes the frozen snapshot — the
// same asymmetry a real monitor outage produces.
//
// mu guards the snapshot caches and injector counters, so a Reader is safe
// to share across goroutines. Fault decisions themselves are pure hashes of
// (seed, time, salt) — they stay deterministic whatever the interleaving.
type Reader struct {
	in    *Injector
	inner core.PowerReader

	mu     sync.Mutex
	groups map[uint64]sample  // last healthy reading per group
	span   []cluster.ServerID // RangePower's group lo..hi, reused
	// healthy is the last healthy per-server snapshot (nil before the
	// first), served through a blackout; faulty is the copy that per-server
	// faults corrupt.
	healthy, faulty []float64
}

type sample struct {
	v  float64
	at sim.Time
}

// WrapReader interposes the injector on a power reader.
func (in *Injector) WrapReader(r core.PowerReader) *Reader {
	return &Reader{in: in, inner: r, groups: make(map[uint64]sample)}
}

// groupKey folds a server set into a stable cache key.
func groupKey(ids []cluster.ServerID) uint64 {
	x := uint64(len(ids))
	for _, id := range ids {
		x ^= uint64(id) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
	}
	return x
}

// sampleTime reports when inner's current snapshot was taken (now for a
// reader that cannot tell).
func (r *Reader) sampleTime(ids []cluster.ServerID, now sim.Time) sim.Time {
	if t, ok := r.inner.GroupSampleTime(ids); ok {
		return t
	}
	return now
}

// corruption holds the NaN and outlier faults active at one instant.
type corruption struct{ nan, outlier []Fault }

func (in *Injector) corruption(now sim.Time) corruption {
	return corruption{nan: in.faultsOf(ReadNaN, now), outlier: in.faultsOf(ReadOutlier, now)}
}

// apply corrupts one healthy reading v: the first NaN fault that fires wins,
// else the first outlier fault. It returns the kind that fired, "" if none.
func (in *Injector) apply(c corruption, now sim.Time, salt uint64, v float64) (float64, Kind) {
	for _, f := range c.nan {
		if in.decide(ReadNaN, now, salt, f.Rate) {
			return math.NaN(), ReadNaN
		}
	}
	for _, f := range c.outlier {
		if in.decide(ReadOutlier, now, salt, f.Rate) {
			return v * f.Factor, ReadOutlier
		}
	}
	return v, ""
}

// GroupPower implements core.PowerReader with faults applied.
func (r *Reader) GroupPower(ids []cluster.ServerID) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.inner.GroupPower(ids)
	return r.group(ids, v, ok)
}

// RangePower implements core.PowerReader: the group lo..hi, with the cache
// key, blackout snapshot, faults and counters of GroupPower over it.
func (r *Reader) RangePower(lo, hi cluster.ServerID) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.span = r.span[:0]
	for id := lo; id <= hi; id++ {
		r.span = append(r.span, id)
	}
	v, ok := r.inner.RangePower(lo, hi)
	return r.group(r.span, v, ok)
}

// group passes inner's reading (v, ok) of the group ids through the active
// faults. A blackout discards it for the group's last healthy reading.
// Callers hold mu.
func (r *Reader) group(ids []cluster.ServerID, v float64, ok bool) (float64, bool) {
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
	if !ok {
		return 0, false
	}
	r.groups[key] = sample{v: v, at: r.sampleTime(ids, now)}
	v, kind := r.in.apply(r.in.corruption(now), now, key, v)
	switch kind {
	case ReadNaN:
		r.in.stats.ReadsNaN++
		if r.in.met != nil {
			r.in.met.readsNaN.Inc()
		}
	case ReadOutlier:
		r.in.stats.ReadsOutlier++
		if r.in.met != nil {
			r.in.met.readsOutlier.Inc()
		}
	}
	return v, true
}

// PowerSnapshot implements core.PowerReader. Ranking reads see the same
// blackout and corruption faults as group reads, decided per server with
// the salt id+1; they count in no statistic.
func (r *Reader) PowerSnapshot() ([]float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.in.eng.Now()
	if _, on := r.in.anyActive(ReadBlackout, now); on {
		return r.healthy, r.healthy != nil
	}
	vals, ok := r.inner.PowerSnapshot()
	if !ok {
		return nil, false
	}
	r.healthy = append(r.healthy[:0], vals...)
	c := r.in.corruption(now)
	if len(c.nan) == 0 && len(c.outlier) == 0 {
		return r.healthy, true
	}
	r.faulty = r.faulty[:0]
	for id, v := range vals {
		v, _ = r.in.apply(c, now, uint64(id)+1, v)
		r.faulty = append(r.faulty, v)
	}
	return r.faulty, true
}

// GroupSampleTime implements core.PowerReader: during a blackout the
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
