package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func runSim(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestConcentrateGolden pins a two-row Ampere run with breakers under the
// concentrate-rows shaping — a breaker trip, its repair, and the killed jobs
// included — to testdata/concentrate.golden.
func TestConcentrateGolden(t *testing.T) {
	code, out, errOut := runSim("-rows", "2", "-row-servers", "40", "-hours", "2",
		"-ampere", "-breaker", "-row-chooser", "concentrate-rows")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	want, err := os.ReadFile("testdata/concentrate.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("stdout differs from testdata/concentrate.golden:\n%s", out)
	}
}

func TestExitCodes(t *testing.T) {
	if code, _, errOut := runSim("-policy", "least-loaded"); code != 2 ||
		!strings.Contains(errOut, "flag provided but not defined: -policy") {
		t.Errorf("-policy: exit %d, stderr %q; want 2 and an unknown-flag error", code, errOut)
	}
	for _, c := range []struct{ hours, want string }{
		{"0", "scenario: hours 0 must be positive"},
		{"3000000000000", "scenario: hours 3000000000000 above the 87600-hour bound"},
	} {
		code, out, errOut := runSim("-hours", c.hours)
		if code != 1 || out != "" || !strings.HasPrefix(errOut, "ampere-sim: ") || !strings.HasSuffix(errOut, c.want+"\n") {
			t.Errorf("-hours %s: exit %d, stdout %q, stderr %q; want 1 and %q", c.hours, code, out, errOut, c.want)
		}
	}
	// A bad spec is refused once, before any replicate runs: the error is the
	// scenario's own, with no run unit named.
	if code, out, errOut := runSim("-rows", "0", "-hours", "1", "-replicate", "3"); code != 1 || out != "" ||
		errOut != "ampere-sim: scenario: rows 0 must be positive\n" {
		t.Errorf("-rows 0: exit %d, stdout %q, stderr %q; want 1 and the bare scenario error", code, out, errOut)
	}
	for _, k := range []string{"0", "-3"} {
		if code, out, errOut := runSim("-replicate", k, "-hours", "1"); code != 2 || out != "" ||
			!strings.HasPrefix(errOut, "ampere-sim: -replicate "+k+" must be at least 1\nUsage of ampere-sim:") {
			t.Errorf("-replicate %s: exit %d, stdout %q, stderr %q; want 2 and the usage", k, code, out, errOut)
		}
	}
}
