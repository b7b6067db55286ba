package monitor

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/tsdb"
)

// Readers never see half a sweep. While a fleet with helpers sweeps at
// GOMAXPROCS 4, goroutines read through /query, /latest, Names and
// PointCount. A sweep is one frame row, so latest timestamps read one after
// another never go back — rows first, then dc, the order in which a by-name
// store would have written them — every row holds a point at dc's latest
// timestamp, and the database holds whole rows of all the series or none.
func TestFrameReadersSeeWholeSweeps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const rows, sweeps, readers = 250, 6, 3
	db := tsdb.New(sweeps)
	m, err := New(sim.NewEngine(), mixedFleet(t, rows), db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.sweepWidth() < 2 {
		t.Fatal("the fleet sweeps inline")
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	get := func(path string, q url.Values, out any) bool {
		resp, err := http.Get(srv.URL + path + "?" + q.Encode())
		if err != nil {
			t.Error(err)
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	latest := func(name string) sim.Time {
		var p tsdb.Point
		if !get("/latest", url.Values{"name": {name}}, &p) {
			return -1 // before the first sweep
		}
		return p.T
	}

	width := len(m.names)
	probe := []string{SeriesRow(0), SeriesRow(rows / 2), SeriesRow(rows - 1)}
	var reads atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				seen := sim.Time(-1)
				for _, name := range append(probe, SeriesDC) {
					at := latest(name)
					if at < seen {
						t.Errorf("latest %s at %v, read after a series at %v", name, at, seen)
					}
					seen = at
				}
				for _, name := range probe {
					var pts []tsdb.Point
					at := strconv.FormatInt(int64(seen), 10)
					q := url.Values{"name": {name}, "from": {at}, "to": {at}}
					if seen >= 0 && (!get("/query", q, &pts) || len(pts) != 1) {
						t.Errorf("%s holds %d points at dc's latest %v, want 1", name, len(pts), seen)
					}
				}
				if n := db.PointCount(); n%width != 0 {
					t.Errorf("%d points held, not whole rows of %d series", n, width)
				}
				if n := len(db.Names()); n != 0 && n != width {
					t.Errorf("%d series listed, want 0 or %d", n, width)
				}
				reads.Add(1)
			}
		}()
	}
	for i := 0; i < sweeps; i++ {
		m.Sweep(sim.Time(i) * sim.Time(sim.Minute))
		// Let every reader finish a pass against this sweep before the next.
		for start := reads.Load(); reads.Load() < start+2*readers; {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	if got := db.PointCount(); got != sweeps*width {
		t.Errorf("%d points after %d sweeps of %d series", got, sweeps, width)
	}
}
