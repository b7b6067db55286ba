package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestDurationDistributionMatchesFig7(t *testing.T) {
	dd := DefaultDurations()
	r := sim.NewRNG(1)
	n := 100000
	var sum float64
	within2 := 0
	for i := 0; i < n; i++ {
		d := dd.Sample(r)
		if d < dd.Min || d > dd.Max {
			t.Fatalf("sample %v outside [%v, %v]", d, dd.Min, dd.Max)
		}
		sum += d.Minutes()
		if d.Minutes() <= 2 {
			within2++
		}
	}
	mean := sum / float64(n)
	// Paper: average ≈ 9 min (truncation shaves a little).
	if mean < 7.5 || mean > 10 {
		t.Errorf("mean duration %.2f min, want ≈9 (paper Fig 7)", mean)
	}
	frac2 := float64(within2) / float64(n)
	// Paper: about 40 % of jobs finish within 2 minutes.
	if frac2 < 0.36 || frac2 > 0.44 {
		t.Errorf("P(≤2min) = %.3f, want ≈0.40 (paper Fig 7)", frac2)
	}
	if got := dd.Mean(); math.Abs(got-9.0) > 0.15 {
		t.Errorf("analytic mean %.3f, want ≈9", got)
	}
}

func TestDurationClamping(t *testing.T) {
	dd := DurationDist{Mu: 10, Sigma: 0.1, Min: sim.Second, Max: sim.Minute}
	r := sim.NewRNG(2)
	for i := 0; i < 100; i++ {
		if d := dd.Sample(r); d > sim.Minute {
			t.Fatalf("sample %v above Max", d)
		}
	}
	dd = DurationDist{Mu: -10, Sigma: 0.1, Min: sim.Second, Max: sim.Minute}
	for i := 0; i < 100; i++ {
		if d := dd.Sample(r); d < sim.Second {
			t.Fatalf("sample %v below Min", d)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewGenerator(eng, 1, []Product{DefaultProduct("a", 10)}, DefaultDurations(), nil); err == nil {
		t.Error("nil sink accepted")
	}
	if _, err := NewGenerator(eng, 1, nil, DefaultDurations(), func(*Job) {}); err == nil {
		t.Error("empty products accepted")
	}
	bad := DefaultProduct("a", -1)
	if _, err := NewGenerator(eng, 1, []Product{bad}, DefaultDurations(), func(*Job) {}); err == nil {
		t.Error("negative rate accepted")
	}
	// A non-finite peak hour or a NaN period made every minute's rate NaN
	// and the generator emitted nothing; an infinite period gave a flat load
	// and a negative one ran as the 24 h day. A period of 0 is that day.
	for _, tc := range []struct {
		peak, period float64
		ok           bool
	}{
		{math.NaN(), 0, false}, {math.Inf(1), 0, false}, {math.Inf(-1), 0, false},
		{14, math.NaN(), false}, {14, math.Inf(1), false}, {14, -3, false},
		{14, 0, true}, {-2, 4, true}, {30, 24, true},
	} {
		p := DefaultProduct("a", 10)
		p.PeakHour, p.PeriodHours = tc.peak, tc.period
		if _, err := NewGenerator(eng, 1, []Product{p}, DefaultDurations(), func(*Job) {}); (err == nil) != tc.ok {
			t.Errorf("peak %v period %v: error %v, want accepted %v", tc.peak, tc.period, err, tc.ok)
		}
	}
}

// A non-finite mean reaches sim.Poisson's int conversion, which on amd64
// yields zero jobs a minute without a word: a construction error instead.
func TestNewGeneratorRejectsNonFiniteRates(t *testing.T) {
	eng := sim.NewEngine()
	for _, rate := range []float64{math.NaN(), math.Inf(1), 1e300} {
		p := DefaultProduct("base", 10)
		p.BaseJobsPerMinute = rate
		if _, err := NewGenerator(eng, 1, []Product{p}, DefaultDurations(), func(*Job) {}); err == nil {
			t.Errorf("base rate %v accepted", rate)
		}
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		p := DefaultProduct("sched", 10)
		p.Schedule = []float64{5, rate, 7}
		_, err := NewGenerator(eng, 1, []Product{DefaultProduct("ok", 1), p}, DefaultDurations(), func(*Job) {})
		if err == nil {
			t.Errorf("schedule rate %v accepted", rate)
		} else if msg := err.Error(); !strings.Contains(msg, "product 1 (sched)") || !strings.Contains(msg, "minute 1") {
			t.Errorf("error %q names neither the product nor the index", msg)
		}
	}
}

// A phi outside (−1, 1) makes the wobble NaN on its first step, the rate NaN
// with it, and a NaN-mean Poisson draw used to never return: the generator
// did not finish its first minute. It is a construction error.
func TestNewGeneratorRejectsBadNoise(t *testing.T) {
	eng := sim.NewEngine()
	for _, phi := range []float64{1.5, 1, -1, math.NaN()} {
		p := DefaultProduct("a", 10)
		p.NoisePhi = phi
		if _, err := NewGenerator(eng, 1, []Product{p}, DefaultDurations(), func(*Job) {}); err == nil {
			t.Errorf("noise phi %v accepted", phi)
		}
	}
	p := DefaultProduct("a", 10)
	p.NoiseSigma = -0.1
	if _, err := NewGenerator(eng, 1, []Product{p}, DefaultDurations(), func(*Job) {}); err == nil {
		t.Error("negative noise sigma accepted")
	}
}

// Above 1 the diurnal trough's rate is negative and clamps to 0, so the mean
// rate exceeds BaseJobsPerMinute: a construction error, as is a negative or
// NaN amplitude.
func TestNewGeneratorRejectsAmplitudeOutsideUnit(t *testing.T) {
	eng := sim.NewEngine()
	for _, amp := range []float64{-0.1, 1.01, 5, math.NaN(), math.Inf(1)} {
		p := DefaultProduct("a", 10)
		p.DiurnalAmplitude = amp
		if _, err := NewGenerator(eng, 1, []Product{p}, DefaultDurations(), func(*Job) {}); err == nil {
			t.Errorf("diurnal amplitude %v accepted", amp)
		}
	}
	for _, amp := range []float64{0, 0.65, 1} {
		p := DefaultProduct("a", 10)
		p.DiurnalAmplitude = amp
		if _, err := NewGenerator(eng, 1, []Product{p}, DefaultDurations(), func(*Job) {}); err != nil {
			t.Errorf("diurnal amplitude %v refused: %v", amp, err)
		}
	}
}

func TestGeneratorMeanRate(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultProduct("steady", 120)
	p.DiurnalAmplitude = 0
	p.NoiseSigma = 0
	p.SurgeProb = 0
	var jobs []Job // copies: *Job is the sink's for the call only
	g, err := NewGenerator(eng, 7, []Product{p}, DefaultDurations(), func(j *Job) { jobs = append(jobs, *j) })
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	hours := 4
	if err := eng.RunUntil(sim.Time(hours) * sim.Time(sim.Hour)); err != nil {
		t.Fatal(err)
	}
	perMinute := float64(len(jobs)) / float64(hours*60)
	if perMinute < 114 || perMinute > 126 {
		t.Errorf("mean rate %.1f jobs/min, want ≈120", perMinute)
	}
	if g.Generated() < int64(len(jobs)) {
		t.Errorf("Generated() = %d < delivered %d", g.Generated(), len(jobs))
	}
	// Arrival times are within the simulation horizon and non-decreasing in
	// delivery order (the engine delivers in time order).
	prev := sim.Time(0)
	for _, j := range jobs {
		if j.Arrival < prev {
			t.Fatal("arrivals delivered out of order")
		}
		prev = j.Arrival
		if j.CPU < 0.5 || j.CPU > 1.5 {
			t.Fatalf("CPU %v outside U(0.5,1.5)", j.CPU)
		}
	}
}

func TestGeneratorDiurnalShape(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultProduct("diurnal", 100)
	p.DiurnalAmplitude = 0.2
	p.PeakHour = 14
	p.NoiseSigma = 0
	p.SurgeProb = 0
	g, err := NewGenerator(eng, 1, []Product{p}, DefaultDurations(), func(*Job) {})
	if err != nil {
		t.Fatal(err)
	}
	atPeak := g.RateAt(0, sim.Time(14*sim.Hour))
	atTrough := g.RateAt(0, sim.Time(2*sim.Hour))
	if math.Abs(atPeak-120) > 1 {
		t.Errorf("peak rate %.1f, want ≈120", atPeak)
	}
	if math.Abs(atTrough-80) > 1 {
		t.Errorf("trough rate %.1f, want ≈80", atTrough)
	}
}

func TestGeneratorSurges(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultProduct("surgey", 100)
	p.DiurnalAmplitude = 0
	p.NoiseSigma = 0
	p.SurgeProb = 0.05
	p.SurgeMinMult, p.SurgeMaxMult = 2, 2
	p.SurgeMinMinutes, p.SurgeMaxMinutes = 3, 3
	counts := map[int64]int{}
	g, err := NewGenerator(eng, 3, []Product{p}, DefaultDurations(), func(j *Job) {
		counts[int64(j.Arrival)/int64(sim.Minute)]++
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	if err := eng.RunUntil(sim.Time(12 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	surgeMinutes := 0
	for _, c := range counts {
		if c > 160 { // 100 base vs 200 surged; 160 cleanly separates
			surgeMinutes++
		}
	}
	if surgeMinutes == 0 {
		t.Error("no surge minutes observed in 12h with SurgeProb=0.05")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() []int64 {
		eng := sim.NewEngine()
		var ids []int64
		var arr []sim.Time
		g, err := NewGenerator(eng, 99, []Product{DefaultProduct("a", 50)}, DefaultDurations(), func(j *Job) {
			ids = append(ids, j.ID)
			arr = append(arr, j.Arrival)
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		if err := eng.RunUntil(sim.Time(sim.Hour)); err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(ids))
		for i := range ids {
			out[i] = ids[i]*1000003 + int64(arr[i])
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at job %d", i)
		}
	}
}

func TestGeneratorStop(t *testing.T) {
	eng := sim.NewEngine()
	n := 0
	g, err := NewGenerator(eng, 1, []Product{DefaultProduct("a", 60)}, DefaultDurations(), func(*Job) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	g.Start() // idempotent
	if err := eng.RunUntil(sim.Time(10 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	g.Stop() // idempotent
	at10 := n
	if err := eng.RunUntil(sim.Time(20 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	// Arrivals already scheduled within the stopped minute may still land,
	// but no new minutes are generated.
	if n > at10+200 {
		t.Errorf("generator kept emitting after Stop: %d -> %d", at10, n)
	}
	if n == 0 {
		t.Error("no jobs before Stop")
	}
}

func TestTwoProductsIndependentStreams(t *testing.T) {
	eng := sim.NewEngine()
	perProduct := map[int]int{}
	ps := []Product{DefaultProduct("a", 60), DefaultProduct("b", 30)}
	g, err := NewGenerator(eng, 5, ps, DefaultDurations(), func(j *Job) { perProduct[j.Product]++ })
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	if err := eng.RunUntil(sim.Time(6 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	ra := float64(perProduct[0]) / 360
	rb := float64(perProduct[1]) / 360
	if ra < 50 || ra > 70 || rb < 24 || rb > 36 {
		t.Errorf("product rates %.1f, %.1f want ≈60, ≈30", ra, rb)
	}
}

func TestRateForPowerFraction(t *testing.T) {
	// Round-trip: the rate computed for a target fraction reproduces it.
	idle, rated := 165.0, 250.0
	containers := 16
	meanDur, meanCPU := 9.0, 1.0
	for _, frac := range []float64{0.7, 0.85, 0.95} {
		rate := RateForPowerFraction(frac, idle, rated, containers, meanDur, meanCPU)
		concurrent := rate * meanDur
		util := concurrent * meanCPU / float64(containers)
		back := (idle + (rated-idle)*util) / rated
		if math.Abs(back-frac) > 1e-9 {
			t.Errorf("frac %v round-trips to %v", frac, back)
		}
	}
	if RateForPowerFraction(0.5, idle, rated, containers, meanDur, meanCPU) != 0 {
		t.Error("target below idle fraction should yield rate 0")
	}
}

// Degenerate inputs must yield rate 0, never ±Inf or NaN — a spec with
// ratedW == idleW used to divide by zero and ask for an infinite job rate.
func TestRateForPowerFractionDegenerateInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name              string
		frac, idle, rated float64
		containers        int
		meanDur, meanCPU  float64
	}{
		{"rated equals idle", 0.8, 250, 250, 16, 9, 1},
		{"rated below idle", 0.8, 250, 150, 16, 9, 1},
		{"negative idle", 0.8, -10, 250, 16, 9, 1},
		{"NaN fraction", nan, 150, 250, 16, 9, 1},
		{"NaN idle", 0.8, nan, 250, 16, 9, 1},
		{"NaN rated", 0.8, 150, nan, 16, 9, 1},
		{"Inf rated", 0.8, 150, inf, 16, 9, 1},
		{"Inf idle", 0.8, inf, 250, 16, 9, 1},
		{"zero containers", 0.8, 150, 250, 0, 9, 1},
		{"zero duration", 0.8, 150, 250, 16, 0, 1},
		{"NaN duration", 0.8, 150, 250, 16, nan, 1},
		{"zero CPU", 0.8, 150, 250, 16, 9, 0},
		{"NaN CPU", 0.8, 150, 250, 16, 9, nan},
	}
	for _, c := range cases {
		got := RateForPowerFraction(c.frac, c.idle, c.rated, c.containers, c.meanDur, c.meanCPU)
		if got != 0 {
			t.Errorf("%s: rate %v, want 0", c.name, got)
		}
	}
}

// Property: modulated rate is never negative regardless of noise state.
func TestRateNonNegativeProperty(t *testing.T) {
	f := func(seed uint64, minutes uint16) bool {
		eng := sim.NewEngine()
		p := DefaultProduct("x", 50)
		p.NoiseSigma = 0.5 // violent wobble
		g, err := NewGenerator(eng, seed, []Product{p}, DefaultDurations(), func(*Job) {})
		if err != nil {
			return false
		}
		g.Start()
		ok := true
		check := eng.Every(0, sim.Minute, "check", func(now sim.Time) {
			if g.RateAt(0, now) < 0 {
				ok = false
			}
		})
		_ = check
		if err := eng.RunUntil(sim.Time(minutes%600) * sim.Time(sim.Minute)); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The workload's minute-scale variability should concentrate small deltas
// with occasional spikes, qualitatively matching Fig 9's shape.
func TestMinuteRateDeltaDistribution(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultProduct("fig9", 500)
	counts := map[int64]float64{}
	g, err := NewGenerator(eng, 12, []Product{p}, DefaultDurations(), func(j *Job) {
		counts[int64(j.Arrival)/int64(sim.Minute)]++
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	if err := eng.RunUntil(sim.Time(24 * sim.Hour)); err != nil {
		t.Fatal(err)
	}
	series := make([]float64, 24*60)
	for m := range series {
		series[m] = counts[int64(m)]
	}
	deltas := stats.Diffs(series)
	abs := make([]float64, len(deltas))
	for i, d := range deltas {
		abs[i] = math.Abs(d) / 500
	}
	p90 := stats.Percentile(abs, 90)
	max := stats.Percentile(abs, 100)
	if p90 > 0.25 {
		t.Errorf("90th pct relative rate delta %.3f too large", p90)
	}
	if max < p90*1.5 {
		t.Errorf("no spike tail: max %.3f vs p90 %.3f", max, p90)
	}
}
