package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestAppendAndQuery(t *testing.T) {
	db := New(0)
	for i := 0; i < 10; i++ {
		if err := db.Append("row/0", sim.Time(i)*sim.Time(sim.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pts := db.Query("row/0", sim.Time(2*sim.Minute), sim.Time(5*sim.Minute))
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	if pts[0].V != 2 || pts[3].V != 5 {
		t.Errorf("range query wrong: %+v", pts)
	}
	if got := db.Len("row/0"); got != 10 {
		t.Errorf("Len = %d", got)
	}
	if vs := db.Values("row/0", 0, sim.Time(sim.Hour)); len(vs) != 10 || vs[9] != 9 {
		t.Errorf("Values = %v", vs)
	}
	if pts := db.Query("missing", 0, sim.Time(sim.Hour)); pts != nil {
		t.Errorf("query of missing series = %v", pts)
	}
}

func TestOutOfOrderAppendRejected(t *testing.T) {
	db := New(0)
	if err := db.Append("s", sim.Time(sim.Minute), 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Append("s", 0, 2); err == nil {
		t.Error("out-of-order append accepted")
	}
	// Equal timestamps are allowed (restart re-sampling the same minute).
	if err := db.Append("s", sim.Time(sim.Minute), 3); err != nil {
		t.Errorf("equal-timestamp append rejected: %v", err)
	}
}

func TestLatest(t *testing.T) {
	db := New(0)
	if _, ok := db.Latest("s"); ok {
		t.Error("Latest on empty series reported ok")
	}
	db.Append("s", 1, 10)
	db.Append("s", 2, 20)
	p, ok := db.Latest("s")
	if !ok || p.V != 20 || p.T != 2 {
		t.Errorf("Latest = %+v, %v", p, ok)
	}
}

func TestRetention(t *testing.T) {
	db := New(5)
	for i := 0; i < 100; i++ {
		db.Append("s", sim.Time(i), float64(i))
	}
	if got := db.Len("s"); got != 5 {
		t.Fatalf("retained %d points, want 5", got)
	}
	pts := db.Query("s", 0, sim.Time(1000))
	if pts[0].V != 95 || pts[4].V != 99 {
		t.Errorf("retained wrong window: %+v", pts)
	}
}

func TestNames(t *testing.T) {
	db := New(0)
	db.Append("b", 0, 1)
	db.Append("a", 0, 1)
	db.Append("c", 0, 1)
	names := db.Names()
	if !sort.StringsAreSorted(names) || len(names) != 3 {
		t.Errorf("Names = %v", names)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New(1000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(2)
		go func() {
			defer wg.Done()
			name := []string{"a", "b", "c", "d"}[w]
			for i := 0; i < 1000; i++ {
				_ = db.Append(name, sim.Time(i), float64(i))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				db.Query("a", 0, sim.Time(i))
				db.Latest("b")
				db.Names()
			}
		}()
	}
	wg.Wait()
}

func TestHTTPAPI(t *testing.T) {
	db := New(0)
	for i := 0; i < 5; i++ {
		db.Append("row/0", sim.Time(i)*sim.Time(sim.Minute), float64(100+i))
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	// /series
	var names []string
	getJSON(t, srv.URL+"/series", &names)
	if len(names) != 1 || names[0] != "row/0" {
		t.Errorf("/series = %v", names)
	}

	// /query full range
	var pts []Point
	getJSON(t, srv.URL+"/query?name=row/0", &pts)
	if len(pts) != 5 {
		t.Errorf("/query returned %d points", len(pts))
	}

	// /query sub-range
	pts = nil
	getJSON(t, srv.URL+"/query?name=row/0&from=60000&to=120000", &pts)
	if len(pts) != 2 || pts[0].V != 101 {
		t.Errorf("/query range = %+v", pts)
	}

	// /latest
	var p Point
	getJSON(t, srv.URL+"/latest?name=row/0", &p)
	if p.V != 104 {
		t.Errorf("/latest = %+v", p)
	}

	// error cases
	for _, url := range []string{
		srv.URL + "/query",
		srv.URL + "/query?name=x&from=zzz",
		srv.URL + "/query?name=x&to=zzz",
		srv.URL + "/latest",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", url, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/latest?name=missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing series status %d, want 404", resp.StatusCode)
	}
	// Empty query result is [] not null.
	respQ, err := http.Get(srv.URL + "/query?name=missing")
	if err != nil {
		t.Fatal(err)
	}
	defer respQ.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(respQ.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if string(raw) == "null" {
		t.Error("empty query encoded as null, want []")
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// Property: Query(name, from, to) equals filtering a reference slice, for
// monotone appends under any retention setting.
func TestQueryMatchesReferenceProperty(t *testing.T) {
	f := func(valsRaw []uint8, retention uint8, fromRaw, toRaw uint8) bool {
		db := New(int(retention % 16))
		var ref []Point
		tm := sim.Time(0)
		for i, v := range valsRaw {
			tm += sim.Time(v%7) * sim.Time(sim.Second)
			p := Point{T: tm, V: float64(v) + float64(i)/1000}
			if db.Append("s", p.T, p.V) != nil {
				return false
			}
			ref = append(ref, p)
		}
		if r := int(retention % 16); r > 0 && len(ref) > r {
			ref = ref[len(ref)-r:]
		}
		from := sim.Time(fromRaw) * sim.Time(sim.Second)
		to := sim.Time(toRaw) * sim.Time(sim.Second)
		got := db.Query("s", from, to)
		var want []Point
		for _, p := range ref {
			if p.T >= from && p.T <= to {
				want = append(want, p)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A frame's series exist (Names, SeriesCount, /series, Latest) only once it
// holds a row, and a row is stored whole or not at all.
func TestSeriesExistsOnceItHoldsAPoint(t *testing.T) {
	db := New(0)
	names := []string{"rack/0/0", "row/0", "dc"}
	f, err := db.Frame(names)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := db.Frame(names); err != nil || again != f {
		t.Fatalf("Frame resolved the same names to %p, %v; want %p", again, err, f)
	}
	if err := f.Append(0, []float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("NaN accepted in a frame row")
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	var listed []string
	getJSON(t, srv.URL+"/series", &listed)
	if _, ok := db.Latest("dc"); ok || db.SeriesCount() != 0 || db.Len("rack/0/0") != 0 ||
		len(db.Names()) != 0 || len(listed) != 0 || db.PointCount() != 0 {
		t.Fatalf("empty frame exists: count %d, names %v, /series %v", db.SeriesCount(), db.Names(), listed)
	}

	// One ordering rule per frame; a column takes samples only in rows.
	if err := f.Append(sim.Time(sim.Minute), []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(0, []float64{4, 5, 6}); err == nil {
		t.Error("out-of-order row accepted")
	}
	if err := f.Append(sim.Time(2*sim.Minute), []float64{4, 5}); err == nil {
		t.Error("short row accepted")
	}
	if err := db.Append("row/0", sim.Time(2*sim.Minute), 7); err == nil {
		t.Error("by-name append to a column of a wider frame accepted")
	}
	if _, err := db.Frame([]string{"row/0", "row/1"}); err == nil {
		t.Error("a second frame took a stored series")
	}
	if _, err := db.Frame([]string{"row/9", "row/9"}); err == nil {
		t.Error("a frame named one series twice")
	}
	if p, ok := db.Latest("row/0"); !ok || p != (Point{T: sim.Time(sim.Minute), V: 2}) {
		t.Errorf("Latest(row/0) = %+v, %v; want {1m 2}", p, ok)
	}
	if db.SeriesCount() != 3 || len(db.Names()) != 3 || db.PointCount() != 3 {
		t.Errorf("count %d, names %v, points %d", db.SeriesCount(), db.Names(), db.PointCount())
	}
	// The rejected frames left nothing behind: row/1 and row/9 are free.
	for _, name := range []string{"row/1", "row/9"} {
		if err := db.Append(name, 0, 1); err != nil {
			t.Errorf("series of a rejected frame not free: %v", err)
		}
	}
}

// Once the ring has wrapped, an append allocates nothing, by name at width 1
// and as a row at width 21 (a row of racks).
func TestFrameAppendDoesNotAllocate(t *testing.T) {
	const retention = 64
	for _, width := range []int{1, 21} {
		db := New(retention)
		names := make([]string, width)
		for i := range names {
			names[i] = fmt.Sprintf("rack/0/%d", i)
		}
		f, err := db.Frame(names)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, width)
		tm := sim.Time(0)
		next := func() {
			tm += sim.Time(sim.Minute)
			if width == 1 {
				err = db.Append(names[0], tm, 1)
			} else {
				err = f.Append(tm, row)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3*retention; i++ {
			next()
		}
		if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
			t.Errorf("width %d: append at retention %d allocates %.2f objects, want 0", width, retention, allocs)
		}
		if got := db.Len(names[width-1]); got != retention {
			t.Errorf("width %d: retained %d points, want %d", width, got, retention)
		}
	}
}

// A frame holds no more rows than it retains — at most retention +
// retention/4 was the bound of the block store it replaced — and Query
// returns exactly the last retention rows throughout.
func TestFrameHoldsAtMostRetention(t *testing.T) {
	const retention = 64
	db := New(retention)
	f, err := db.Frame([]string{"rack/0/0", "rack/0/1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*retention; i++ {
		if err := f.Append(sim.Time(i), []float64{float64(i), -float64(i)}); err != nil {
			t.Fatal(err)
		}
		if held := f.slots(); held > retention || len(f.ring) != 3*held {
			t.Fatalf("after %d appends the frame holds %d rows in %d words, want at most %d rows of 3",
				i+1, held, len(f.ring), retention)
		}
		pts := db.Query("rack/0/1", 0, sim.Time(i))
		want := min(i+1, retention)
		if len(pts) != want || pts[len(pts)-1].V != -float64(i) || pts[0].V != -float64(i+1-want) {
			t.Fatalf("after %d appends Query returned %d points %v…%v, want the last %d",
				i+1, len(pts), pts[0].V, pts[len(pts)-1].V, want)
		}
	}
}

// A row's timestamp is stored as its bits beside the row's values; every
// int64 comes back as it went in, including those whose bits read as a NaN.
func TestExtremeTimestampsRoundTrip(t *testing.T) {
	db := New(0)
	times := []sim.Time{math.MinInt64, -1, 0, 1, math.MaxInt64}
	for i, at := range times {
		if err := db.Append("s", at, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pts := db.Query("s", math.MinInt64, math.MaxInt64)
	if len(pts) != len(times) {
		t.Fatalf("%d points, want %d", len(pts), len(times))
	}
	for i, p := range pts {
		if p != (Point{T: times[i], V: float64(i)}) {
			t.Errorf("point %d = %+v, want {%d %d}", i, p, times[i], i)
		}
	}
	if err := db.Append("s", -1, 9); err == nil {
		t.Error("append at -1 after MaxInt64 accepted")
	}
}
