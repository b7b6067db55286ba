package tsdb

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestNonFiniteAppendRejected is the regression test for the NaN-poisoning
// bug: Append used to accept NaN/±Inf, and because encoding/json cannot
// marshal them, a single poisoned sample made every later /query and
// /latest on that series return 500. Ingest must reject them with an error,
// count them in tsdb_append_errors_total, and leave the series queryable.
func TestNonFiniteAppendRejected(t *testing.T) {
	db := New(0)
	reg := obs.NewRegistry()
	db.Instrument(reg)

	if err := db.Append("row/0", 0, 100); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := db.Append("row/0", sim.Time(sim.Minute), v); err == nil {
			t.Errorf("Append(%v) accepted, want error", v)
		}
	}
	if got := db.Len("row/0"); got != 1 {
		t.Fatalf("series retained %d points after rejected appends, want 1", got)
	}

	// Later finite appends still work at the timestamp the rejects carried.
	if err := db.Append("row/0", sim.Time(sim.Minute), 101); err != nil {
		t.Fatalf("finite append after rejects: %v", err)
	}

	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	for _, path := range []string{"/query?name=row/0", "/latest?name=row/0"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d after NaN append attempt, want 200", path, resp.StatusCode)
		}
	}

	// The rejections are visible on the scrape counter.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tsdb_append_errors_total 3") {
		t.Errorf("scrape missing tsdb_append_errors_total 3:\n%s", buf.String())
	}
}

// A frame row holding one non-finite value is rejected whole: one count in
// tsdb_append_errors_total, and no series of the frame — finite columns
// included — shows the row to a reader. An accepted row counts its width in
// tsdb_appends_total.
func TestNonFiniteFrameRejectedWhole(t *testing.T) {
	db := New(0)
	reg := obs.NewRegistry()
	db.Instrument(reg)
	f, err := db.Frame([]string{"rack/0/0", "row/0", "dc"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(sim.Time(sim.Minute), []float64{4, math.Inf(1), 6}); err == nil {
		t.Fatal("row with +Inf accepted")
	}
	for _, name := range []string{"rack/0/0", "row/0", "dc"} {
		if p, _ := db.Latest(name); p.T != 0 || db.Len(name) != 1 {
			t.Errorf("%s: latest %+v, %d points after the rejected row; want only the row at 0", name, p, db.Len(name))
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tsdb_append_errors_total 1", "tsdb_appends_total 3"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("scrape missing %s:\n%s", want, buf.String())
		}
	}
}
