package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

func buildDB(t *testing.T, minutes int) *tsdb.DB {
	t.Helper()
	db := tsdb.New(0)
	for m := 0; m < minutes; m++ {
		at := sim.Time(m) * sim.Time(sim.Minute)
		if err := db.Append("row/0", at, 1000+float64(m)); err != nil {
			t.Fatal(err)
		}
		if err := db.Append("row/1", at, 2000-float64(m)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestFromTSDB(t *testing.T) {
	db := buildDB(t, 10)
	tr, err := FromTSDB(db, []string{"row/0", "row/1"}, 0, sim.Time(10*sim.Minute), sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 10 || len(tr.Names) != 2 {
		t.Fatalf("trace shape %d×%d", tr.Len(), len(tr.Names))
	}
	if tr.Samples[3][0] != 1003 || tr.Samples[3][1] != 1997 {
		t.Errorf("sample values wrong: %v", tr.Samples[3])
	}
	s, err := tr.SeriesByName("row/1")
	if err != nil || s[0] != 2000 {
		t.Errorf("SeriesByName: %v %v", s, err)
	}
	if _, err := tr.SeriesByName("nope"); err == nil {
		t.Error("missing series accepted")
	}
}

func TestFromTSDBErrors(t *testing.T) {
	db := buildDB(t, 5)
	if _, err := FromTSDB(db, nil, 0, sim.Time(sim.Minute), sim.Minute); err == nil {
		t.Error("no names accepted")
	}
	if _, err := FromTSDB(db, []string{"row/0"}, 0, sim.Time(sim.Minute), 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := FromTSDB(db, []string{"row/0"}, 0, 0, sim.Minute); err == nil {
		t.Error("empty window accepted")
	}
	// Window extending beyond the data: sample-count mismatch.
	if _, err := FromTSDB(db, []string{"row/0"}, 0, sim.Time(sim.Hour), sim.Minute); err == nil {
		t.Error("gappy window accepted")
	}
	// Missing series.
	if _, err := FromTSDB(db, []string{"row/9"}, 0, sim.Time(5*sim.Minute), sim.Minute); err == nil {
		t.Error("missing series accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := buildDB(t, 8)
	tr, err := FromTSDB(db, []string{"row/0", "row/1"}, 0, sim.Time(8*sim.Minute), sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Interval != tr.Interval || back.Start != tr.Start || back.Len() != tr.Len() {
		t.Fatalf("round trip shape: %+v vs %+v", back, tr)
	}
	for i := range tr.Samples {
		for j := range tr.Samples[i] {
			if math.Abs(back.Samples[i][j]-tr.Samples[i][j]) > 1e-3 {
				t.Fatalf("sample (%d,%d) %v != %v", i, j, back.Samples[i][j], tr.Samples[i][j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"time_ms,row/0\n0,1\n", // only one sample
		"bad,row/0\n0,1\n60000,2\n120000,3\n",
		"time_ms,row/0\n0,1\nzzz,2\n120000,3\n",
		"time_ms,row/0\n0,1\n60000,zzz\n120000,3\n",
		"time_ms,row/0\n0,1\n0,2\n0,3\n",          // non-increasing
		"time_ms,row/0\n0,1\n60000,2\n180000,3\n", // irregular
		"time_ms,row/0\n0,1\n60000,NaN\n120000,3\n",
		"time_ms,row/0\n0,1\n60000,2\n120000,Inf\n",
		"time_ms,row/0\n0,-inf\n60000,2\n120000,3\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRateScheduleInvertsCalibration(t *testing.T) {
	spec := cluster.DefaultSpec()
	servers := 100
	meanDur, meanCPU := 8.5, 1.0
	// Forward: rate → power; then invert and compare. Rates stay within
	// container capacity (max ≈ 188 jobs/min for 100×16 containers at
	// 8.5 min mean duration) so the utilization clamp never engages.
	rates := []float64{50, 120, 180}
	powers := make([]float64, len(rates))
	for i, rate := range rates {
		concurrent := rate * meanDur / float64(servers)
		util := concurrent * meanCPU / float64(spec.Containers)
		powers[i] = float64(servers) * (spec.IdlePowerW + (spec.RatedPowerW-spec.IdlePowerW)*util)
	}
	back, err := RateSchedule(powers, servers, spec, meanDur, meanCPU)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if math.Abs(back[i]-rates[i]) > 1e-6 {
			t.Errorf("rate %v inverts to %v", rates[i], back[i])
		}
	}
	// Below idle clamps to zero.
	low, err := RateSchedule([]float64{float64(servers) * spec.IdlePowerW * 0.5}, servers, spec, meanDur, meanCPU)
	if err != nil {
		t.Fatal(err)
	}
	if low[0] != 0 {
		t.Errorf("sub-idle power maps to rate %v", low[0])
	}
}

func TestRateScheduleErrors(t *testing.T) {
	spec := cluster.DefaultSpec()
	if _, err := RateSchedule(nil, 0, spec, 8, 1); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := RateSchedule(nil, 10, spec, 0, 1); err == nil {
		t.Error("zero duration accepted")
	}
	bad := spec
	bad.IdlePowerW = bad.RatedPowerW
	if _, err := RateSchedule(nil, 10, bad, 8, 1); err == nil {
		t.Error("zero span accepted")
	}
}
