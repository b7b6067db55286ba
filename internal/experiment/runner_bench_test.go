package experiment

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// benchFigureSuite drives a shrunken figure suite — the spread comparison
// (3 rigs) and a two-row Table 3 sweep (2 rigs) — at the given GOMAXPROCS.
// `make bench-runner` records serial vs parallel wall-clock; on a ≥4-core
// machine the parallel run should be ≥2× faster, with identical results
// (the byte-identity tests in parallel_test.go check that part).
func benchFigureSuite(b *testing.B, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	spread := SpreadConfig{Seed: 77, Rows: 4, RowServers: 80, TargetFrac: 0.70,
		Warmup: sim.Hour, Measure: 2 * sim.Hour}
	t3 := Table3Config{
		Seed: 33, RowServers: 40,
		Warmup: sim.Hour, Pretrain: 2 * sim.Hour, Measure: 2 * sim.Hour,
		Scenarios: []Table3Scenario{
			{RO: 0.25, TargetFrac: 0.72, Amplitude: 0.30},
			{RO: 0.21, TargetFrac: 0.70, Amplitude: 0.30},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSpread(spread); err != nil {
			b.Fatal(err)
		}
		if _, err := RunTable3(t3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigureSuiteSerial(b *testing.B)   { benchFigureSuite(b, 1) }
func BenchmarkFigureSuiteParallel(b *testing.B) { benchFigureSuite(b, runtime.NumCPU()) }
