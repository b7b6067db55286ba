package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

// server serves the query API over a DB that a monitor filled through its
// frame — 2 rows of 2 racks, sweeps at minutes 0..5 — and a fixed /status.
func server(t *testing.T) (*httptest.Server, *tsdb.DB) {
	t.Helper()
	sp := cluster.DefaultSpec()
	sp.Rows, sp.RacksPerRow, sp.ServersPerRack = 2, 2, 3
	c, err := cluster.New(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.New(0)
	m, err := monitor.New(sim.NewEngine(), c, db, monitor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 5; i++ {
		m.Sweep(sim.Time(i) * sim.Time(sim.Minute))
	}
	mux := http.NewServeMux()
	mux.Handle("/", db.Handler())
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"frozen":0}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, db
}

func ctl(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestCommands(t *testing.T) {
	srv, db := server(t)
	p, _ := db.Latest("row/1")
	var lastTwo strings.Builder
	for _, q := range db.Query("row/1", sim.Time(3*sim.Minute), sim.Time(5*sim.Minute)) {
		fmt.Fprintf(&lastTwo, "%v  %.1f\n", q.T, q.V)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"series"}, strings.Join(db.Names(), "\n") + "\n"},
		{[]string{"latest", "row/1"}, fmt.Sprintf("row/1  %v  %.1f W\n", p.T, p.V)},
		{[]string{"query", "row/1", "-last", "2"}, lastTwo.String()},
		{[]string{"query", "-last", "2", "row/1"}, lastTwo.String()},
		{[]string{"status"}, "{\"frozen\":0}\n"},
	} {
		code, out, errOut := ctl(append([]string{"-addr", srv.URL}, tc.args...)...)
		if code != 0 || out != tc.want {
			t.Errorf("ampere-ctl %v: exit %d, stdout %q, stderr %q; want 0 and %q", tc.args, code, out, errOut, tc.want)
		}
	}
	if code, out, _ := ctl("-addr", srv.URL, "query", "dc"); code != 0 || strings.Count(out, "\n") != 6 {
		t.Errorf("query dc: exit %d, %d lines, want 0 and the 6 sweeps:\n%s", code, strings.Count(out, "\n"), out)
	}
	if n := len(db.Names()); n != 1+2+4 {
		t.Errorf("the monitor's frame holds %d series, want 7", n)
	}
}

func TestExitCodes(t *testing.T) {
	srv, _ := server(t)
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"frobnicate"}, 2},
		{[]string{"latest"}, 2},
		{[]string{"latest", "row/0", "row/1"}, 2},
		{[]string{"query"}, 2},
		{[]string{"query", "-last", "30"}, 2},
		{[]string{"query", "row/0", "row/1"}, 2},
		{[]string{"query", "-last", "x", "row/0"}, 2},
		{[]string{"series", "extra"}, 2},
		{[]string{"latest", "no/such"}, 1},
		{[]string{"query", "-last", "5", "no/such"}, 1},
	} {
		code, out, errOut := ctl(append([]string{"-addr", srv.URL}, tc.args...)...)
		if code != tc.code || out != "" || errOut == "" {
			t.Errorf("ampere-ctl %v: exit %d, stdout %q, stderr %q; want exit %d, a diagnostic and no output",
				tc.args, code, out, errOut, tc.code)
		}
	}
	for _, cmd := range []string{"series", "status"} {
		if code, _, errOut := ctl("-addr", "http://127.0.0.1:1", cmd); code != 1 || errOut == "" {
			t.Errorf("%s against an unreachable server: exit %d, stderr %q; want 1 and a diagnostic", cmd, code, errOut)
		}
	}
}
