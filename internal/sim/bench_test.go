package sim

import "testing"

// coldJob is one record of BenchmarkLaneDispatch's owner slab, one 64-byte
// cache line like the scheduler's running-job record: seq is what live reads,
// host the index of the job's line in the second table.
type coldJob struct {
	seq  uint64
	host int32
	_    [52]byte
}

// coldHost is one line of the owner's second table, as a server's record is
// to a job.
type coldHost struct {
	jobs int64
	_    [56]byte
}

// laneOwner owns one lane entry per job: a completion re-runs the job on
// its host, due 1 to 100 minutes on, so every job stays pending and the
// calendar holds them all.
type laneOwner struct {
	lane  *Lane
	jobs  []coldJob
	hosts []coldHost
	rng   uint64
	sink  uint64
}

func (o *laneOwner) next() uint64 {
	o.rng ^= o.rng << 13
	o.rng ^= o.rng >> 7
	o.rng ^= o.rng << 17
	return o.rng
}

func (o *laneOwner) live(slot int32, seq uint64) bool { return o.jobs[slot].seq == seq }

func (o *laneOwner) complete(now Time, slot int32) {
	j := &o.jobs[slot]
	o.hosts[j.host].jobs++
	j.seq = o.lane.At(now.Add(Minute+Duration(o.next()%uint64(99*Minute))), slot)
}

// touch loads what live reads for ahead, and what complete reads beyond it
// for near. The benchmark's owner has no dead entries, so host needs no
// bounds check here.
func (o *laneOwner) touch(ahead, near []int32) {
	sink := o.sink
	for _, slot := range ahead {
		sink += o.jobs[slot].seq
	}
	for _, slot := range near {
		sink += uint64(o.hosts[o.jobs[slot].host].jobs)
	}
	o.sink = sink
}

// BenchmarkLaneDispatch is the engine's cost per event, in ns/event, when
// the owner's records do not fit in cache: 2^20 jobs of 64 bytes (64 MB),
// each on one of 2^17 64-byte host lines (8 MB), each with one completion
// pending on a lane, dispatched from the calendar's minute runs in random
// slot order as a 100k-server fleet's completions are. touch=off has no
// touch hook, so each dispatch waits for its job's line and then its host's;
// touch=on hands the owner each block of completions ahead of dispatch.
func BenchmarkLaneDispatch(b *testing.B) {
	const jobs, hosts = 1 << 20, 1 << 17
	for _, touching := range []string{"off", "on"} {
		var o *laneOwner
		var e *Engine
		b.Run("touch="+touching, func(b *testing.B) {
			if e == nil {
				// Set up once per sub-benchmark; its rounds run on from
				// where the last one stopped.
				e = NewEngine()
				o = &laneOwner{jobs: make([]coldJob, jobs), hosts: make([]coldHost, hosts), rng: 0x9e3779b97f4a7c15}
				touch := o.touch
				if touching == "off" {
					touch = nil
				}
				o.lane = e.NewLane(o.complete, o.live, touch)
				for slot := range o.jobs {
					o.jobs[slot].host = int32(o.next() % hosts)
					o.jobs[slot].seq = o.lane.At(Time(o.next()%uint64(100*Minute)), int32(slot))
				}
				for i := 0; i < jobs; i++ {
					e.Step()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
		o, e = nil, nil // let the collector have the fixture before the next
	}
}
