package tsdb

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestClientRoundTrip(t *testing.T) {
	db := New(0)
	for m := 0; m < 10; m++ {
		if err := db.Append("row/0", sim.Time(m)*sim.Time(sim.Minute), float64(m)); err != nil {
			t.Fatal(err)
		}
	}
	db.Append("dc", 0, 99)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "dc" {
		t.Errorf("Names = %v", names)
	}

	pts, err := c.Query("row/0", sim.Time(2*sim.Minute), sim.Time(4*sim.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[0].V != 2 {
		t.Errorf("Query = %v", pts)
	}

	all, err := c.QueryAll("row/0")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Errorf("QueryAll returned %d points", len(all))
	}

	p, err := c.Latest("row/0")
	if err != nil {
		t.Fatal(err)
	}
	if p.V != 9 {
		t.Errorf("Latest = %+v", p)
	}

	if _, err := c.Latest("missing"); err == nil {
		t.Error("missing series did not error")
	}
}

func TestClientConnectionError(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens there
	if _, err := c.Names(); err == nil {
		t.Error("unreachable server did not error")
	}
}

// A database that holds no point — fresh, or with a frame that holds no row
// yet — lists its series as the empty JSON array the handler documents, not
// as null; the client decodes that into an empty, non-nil list.
func TestSeriesListOfEmptyDatabaseIsEmptyArray(t *testing.T) {
	resolved := New(0)
	if _, err := resolved.Frame([]string{"row/0", "dc"}); err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"fresh": New(0), "resolved-but-empty": resolved} {
		srv := httptest.NewServer(db.Handler())
		resp, err := http.Get(srv.URL + "/series")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(string(body)); got != "[]" {
			t.Errorf("%s: GET /series answered %q, want []", name, got)
		}
		names, err := NewClient(srv.URL).Names()
		if err != nil || names == nil || len(names) != 0 {
			t.Errorf("%s: Client.Names = %#v, %v; want an empty non-nil list", name, names, err)
		}
		srv.Close()
	}
}
