package service

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// BenchmarkServiceReplay guards the per-window replay cost; ns/request is
// wall time per served request. instances=20 is a 1M-user aggregate rate:
// one million simulated users at 0.06 req/s each (60k req/s service-wide)
// over 20 instances, 1 s windows. instances=400 is svc_slo's service: 600k
// users at 0.039 req/s (58.5 req/s an instance) over 10 s windows, about
// 234k requests a window, so its sample phase runs on GOMAXPROCS goroutines.
// The cost must scale with the request count, never the user count — a
// regression here makes fig11scale's 100k-server runs unaffordable.
//
// phase=window times whole windows; phase=publish times the publish phase
// alone, over the buffers one window's sample phase filled: the serial part
// of the window's figure, which no number of cores shortens.
func BenchmarkServiceReplay(b *testing.B) {
	for _, bc := range []struct {
		instances, users int
		rpsPerUser       float64
		window           sim.Duration
	}{
		{20, 1_000_000, 0.06, sim.Second},
		{400, 600_000, 0.039, 10 * sim.Second},
	} {
		setup := func(b *testing.B) (*Service, *sim.Engine) {
			sp := cluster.DefaultSpec()
			sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 1, bc.instances/20, 20
			sp.NoiseSigmaW = 0
			c, err := cluster.New(sp, 1)
			if err != nil {
				b.Fatal(err)
			}
			eng := sim.NewEngine()
			cfg := Config{Classes: DefaultClasses(bc.users, bc.rpsPerUser), Window: bc.window}
			s, err := New(eng, 9, cfg, c.Servers)
			if err != nil {
				b.Fatal(err)
			}
			s.Start()
			return s, eng
		}
		b.Run(fmt.Sprintf("instances=%d/phase=window", bc.instances), func(b *testing.B) {
			s, eng := setup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.RunUntil(sim.Time(int64(i+1) * int64(bc.window))); err != nil {
					b.Fatal(err)
				}
			}
			settle(s) // the last window is in flight
			b.StopTimer()
			served := s.TotalServed()
			if served == 0 {
				b.Fatal("nothing served")
			}
			b.ReportMetric(float64(served)/float64(b.N), "requests/window")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(served), "ns/request")
		})
		b.Run(fmt.Sprintf("instances=%d/phase=publish", bc.instances), func(b *testing.B) {
			s, eng := setup(b)
			if err := eng.RunUntil(sim.Time(bc.window)); err != nil {
				b.Fatal(err)
			}
			settle(s)
			var requests int
			for _, inst := range s.instances {
				requests += len(inst.pending)
			}
			if requests == 0 {
				b.Fatal("nothing replayed")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.publish()
			}
			b.StopTimer()
			b.ReportMetric(float64(requests), "requests/window")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/request")
		})
	}
}
