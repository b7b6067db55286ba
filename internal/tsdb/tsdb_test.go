package tsdb

import (
	"encoding/json"
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

// A resolved series is a handle, not a fact: it exists (Names, SeriesCount,
// /series, Latest) only once it holds a point, however it got there.
func TestSeriesExistsOnceItHoldsAPoint(t *testing.T) {
	db := New(0)
	h := db.Series("row/0")
	if db.Series("row/0") != h {
		t.Fatal("Series resolved the same name to two handles")
	}
	if err := h.Append(0, math.NaN()); err == nil {
		t.Fatal("NaN accepted through a handle")
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	var names []string
	getJSON(t, srv.URL+"/series", &names)
	if _, ok := db.Latest("row/0"); ok || db.SeriesCount() != 0 || db.Len("row/0") != 0 ||
		len(db.Names()) != 0 || len(names) != 0 {
		t.Fatalf("empty resolved series exists: count %d, names %v, /series %v", db.SeriesCount(), db.Names(), names)
	}

	// The handle and the name are one series with one ordering rule.
	if err := h.Append(sim.Time(sim.Minute), 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Append("row/0", sim.Time(2*sim.Minute), 2); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(sim.Time(sim.Minute), 3); err == nil {
		t.Error("out-of-order append accepted through a handle")
	}
	if got := db.Values("row/0", 0, sim.Time(sim.Hour)); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("values %v, want [1 2]", got)
	}
	if db.SeriesCount() != 1 || len(db.Names()) != 1 || db.PointCount() != 2 {
		t.Errorf("count %d, names %v, points %d", db.SeriesCount(), db.Names(), db.PointCount())
	}
}

func TestSeriesAppendDoesNotAllocate(t *testing.T) {
	db := New(64)
	h := db.Series("rack/0/0")
	tm := sim.Time(0)
	next := func() {
		tm += sim.Time(sim.Minute)
		if err := h.Append(tm, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*64; i++ { // wrap the ring: every block exists
		next()
	}
	if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
		t.Errorf("Series.Append at retention 64 allocates %.2f objects, want 0", allocs)
	}
	if db.Len("rack/0/0") != 64 {
		t.Errorf("retained %d points, want 64", db.Len("rack/0/0"))
	}
}

// Blocks are dropped whole, so a series holds more than it retains — by one
// block, which at a short retention is a quarter of it: never above 80
// points' worth of storage at retention 64 (it was 128, a full block and a
// full tail), and Query still returns exactly the last 64.
func TestShortRetentionBlockBound(t *testing.T) {
	const retention = 64
	db := New(retention)
	s := db.Series("rack/0/0")
	held := func() int {
		n := cap(s.tail) + cap(s.spare)
		for _, b := range s.blocks {
			n += cap(b)
		}
		return n
	}
	recycles := 0
	for i := 0; i < 10*retention; i++ {
		hadSpare := s.spare != nil
		if err := s.Append(sim.Time(i), float64(i)); err != nil {
			t.Fatal(err)
		}
		if !hadSpare && s.spare != nil {
			recycles++
		}
		if h := held(); h > retention+retention/4 {
			t.Fatalf("after %d appends the series holds %d points' worth of blocks, want at most %d", i+1, h, retention+retention/4)
		}
		pts := db.Query("rack/0/0", 0, sim.Time(i))
		want := min(i+1, retention)
		if len(pts) != want || pts[len(pts)-1].V != float64(i) || pts[0].V != float64(i+1-want) {
			t.Fatalf("after %d appends Query returned %d points %v…%v, want the last %d",
				i+1, len(pts), pts[0].V, pts[len(pts)-1].V, want)
		}
	}
	if recycles < 3 {
		t.Fatalf("only %d block recycles in %d appends: the bound was not exercised", recycles, 10*retention)
	}
}
