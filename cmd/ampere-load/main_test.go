package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func runLoad(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// powermonStub answers every path 200, except /healthz, which answers 500
// when failHealth is set.
func powermonStub(t *testing.T, failHealth bool) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failHealth && r.URL.Path == "/healthz" {
			http.Error(w, "failsafe", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

var (
	reportHead = regexp.MustCompile(`^open-loop run: (\d+) arrivals over \d+\.\ds \(\d+\.\d rps offered\)$`)
	reportCols = "target         sent     done  errors  dropped    p50(ms)    p99(ms)   p999(ms)"
	// A row's latency columns are wall-clock: a number with three decimals,
	// or "-" for a target that got no response.
	reportRow = regexp.MustCompile(`^(\S+) +(\d+) +(\d+) +(\d+) +(\d+)( +(\d+\.\d{3}|-)){3}$`)
)

// checkReport parses ampere-load's report: the header, one row per name in
// targets (sorted) and a TOTAL row. It checks that each row's sent + dropped
// sums to the header's arrival count, and returns the errors column per row.
func checkReport(t *testing.T, out string, targets []string) map[string]int {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(targets)+4 {
		t.Fatalf("report has %d lines, want %d:\n%s", len(lines), len(targets)+4, out)
	}
	head := reportHead.FindStringSubmatch(lines[0])
	if head == nil || lines[1] != "" || lines[2] != reportCols {
		t.Fatalf("report header malformed:\n%s", out)
	}
	intended, _ := strconv.Atoi(head[1])
	if intended == 0 {
		t.Fatalf("no arrivals scheduled:\n%s", out)
	}
	errs := map[string]int{}
	offered := 0
	for i, name := range append(targets, "TOTAL") {
		m := reportRow.FindStringSubmatch(lines[3+i])
		if m == nil || m[1] != name {
			t.Fatalf("row %d is %q, want target %s:\n%s", i, lines[3+i], name, out)
		}
		sent, _ := strconv.Atoi(m[2])
		dropped, _ := strconv.Atoi(m[5])
		errs[name], _ = strconv.Atoi(m[4])
		if name == "TOTAL" {
			if sent+dropped != intended {
				t.Errorf("TOTAL sent %d + dropped %d != %d arrivals", sent, dropped, intended)
			}
		} else {
			offered += sent + dropped
		}
	}
	if offered != intended {
		t.Errorf("targets' sent + dropped sum to %d, want %d arrivals", offered, intended)
	}
	return errs
}

func TestReportAllSucceed(t *testing.T) {
	base := powermonStub(t, false)
	code, out, errOut := runLoad("-base", base, "-rps", "400", "-duration", "250ms",
		"-mix", "metrics=3,query=2,status=1")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr %q", code, errOut)
	}
	if errs := checkReport(t, out, []string{"metrics", "query", "status"}); errs["TOTAL"] != 0 {
		t.Errorf("%d errors against a healthy server:\n%s", errs["TOTAL"], out)
	}
}

// One endpoint answering 500 fails the run: exit 1, its errors counted on
// its own row only.
func TestReportEndpointErrors(t *testing.T) {
	base := powermonStub(t, true)
	code, out, errOut := runLoad("-base", base, "-rps", "400", "-duration", "250ms",
		"-mix", "healthz=1,latest=1")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q\n%s", code, errOut, out)
	}
	errs := checkReport(t, out, []string{"healthz", "latest"})
	if errs["healthz"] == 0 || errs["latest"] != 0 || errs["TOTAL"] != errs["healthz"] {
		t.Errorf("errors by row %v, want all on healthz:\n%s", errs, out)
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		code    int
		wantErr string
	}{
		{[]string{"-mix", "bogus=1"}, 2, `ampere-load: unknown endpoint "bogus" (have `},
		{[]string{"-mix", "metrics=0"}, 2, `ampere-load: bad weight in mix entry "metrics=0"`},
		{[]string{"-mix", "metrics=-2"}, 2, `ampere-load: bad weight in mix entry "metrics=-2"`},
		{[]string{"-mix", " , "}, 2, "ampere-load: empty mix"},
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-h"}, 0, "Usage of ampere-load:"},
	} {
		code, out, errOut := runLoad(tc.args...)
		if code != tc.code || !strings.Contains(errOut, tc.wantErr) || out != "" {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want %d and %q on stderr only",
				tc.args, code, errOut, out, tc.code, tc.wantErr)
		}
	}
}
