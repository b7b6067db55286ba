package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func runTrace(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// whySnapshotBytes is the witness size `why` reports for the quick
// gridstorm cliff forked at the dip onset; it moves only when the state a
// snapshot captures does.
const whySnapshotBytes = "snapshot 14697 bytes"

// TestWhyGolden pins `ampere-trace why`'s default report (quick gridstorm
// cliff, forked at the dip onset, scored against a ramped budget) to
// testdata/why.golden, and the witness size it prints on stderr.
func TestWhyGolden(t *testing.T) {
	code, out, errOut := runTrace("why")
	if code != 0 {
		t.Fatalf("why: exit %d, stderr %q", code, errOut)
	}
	want, err := os.ReadFile("testdata/why.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("why stdout differs from testdata/why.golden:\n%s", out)
	}
	if got := regexp.MustCompile(`snapshot \d+ bytes`).FindString(errOut); got != whySnapshotBytes {
		t.Errorf("why stderr reports %q, want %q: %s", got, whySnapshotBytes, errOut)
	}
}

// TestRecordReplayGolden pins README's trace round trip: record four hours
// of one row, then replay the trace under Ampere at rO 0.35. The trace's
// path is written as $TRACE in testdata/record_replay.golden.
func TestRecordReplayGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "row.csv")
	var got strings.Builder
	for _, args := range [][]string{
		{"record", "-out", path, "-hours", "4"},
		{"replay", "-in", path, "-ampere", "-ro", "0.35"},
	} {
		code, out, errOut := runTrace(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, errOut)
		}
		got.WriteString(strings.ReplaceAll(out, path, "$TRACE"))
	}
	want, err := os.ReadFile("testdata/record_replay.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("record + replay stdout differs from testdata/record_replay.golden:\n%s", got.String())
	}
}

func TestWhyJSONParses(t *testing.T) {
	code, out, errOut := runTrace("why", "-json")
	if code != 0 {
		t.Fatalf("why -json: exit %d, stderr %q", code, errOut)
	}
	var rep map[string]any
	if err := json.Unmarshal([]byte(out), &rep); err != nil || len(rep) == 0 {
		t.Fatalf("why -json printed no JSON object (%v):\n%s", err, out)
	}
}

func TestExitCodes(t *testing.T) {
	if code, _, errOut := runTrace("bogus"); code != 2 || !strings.HasPrefix(errOut, "usage:") {
		t.Errorf("unknown subcommand: exit %d, stderr %q; want 2 and the usage", code, errOut)
	}
	if code, _, _ := runTrace(); code != 2 {
		t.Errorf("no subcommand: exit %d, want 2", code)
	}
	// A bad flag prints the subcommand's usage and exits 2 through run; -h
	// prints it and exits 0.
	for _, sub := range []string{"record", "replay", "why"} {
		code, out, errOut := runTrace(sub, "-bogus")
		if code != 2 || out != "" || !strings.Contains(errOut, "flag provided but not defined: -bogus\nUsage of "+sub+":") {
			t.Errorf("%s -bogus: exit %d, stdout %q, stderr %q; want 2 and the usage on stderr", sub, code, out, errOut)
		}
		if code, _, errOut := runTrace(sub, "-h"); code != 0 || !strings.HasPrefix(errOut, "Usage of "+sub+":") {
			t.Errorf("%s -h: exit %d, stderr %q; want 0 and the usage", sub, code, errOut)
		}
	}
	code, _, errOut := runTrace("why", "-regime", "bogus")
	if want := "ampere-trace: unknown regime \"bogus\" (cliff|ramp)\n"; code != 1 || errOut != want {
		t.Errorf("why -regime bogus: exit %d, stderr %q; want 1 and %q", code, errOut, want)
	}
	// record refuses a target outside powermon's (0,1] and an amplitude
	// outside the generator's [0,1], before it simulates anything.
	for _, tc := range []struct{ flag, value string }{
		{"-target", "NaN"}, {"-target", "-1"}, {"-target", "0"}, {"-target", "1.5"},
		{"-amplitude", "NaN"}, {"-amplitude", "-0.1"}, {"-amplitude", "+Inf"},
		{"-amplitude", "5"},
	} {
		code, out, errOut := runTrace("record", "-hours", "1", "-out", filepath.Join(t.TempDir(), "t.csv"), tc.flag, tc.value)
		if want := "ampere-trace: " + tc.flag[1:] + " " + tc.value + " "; code != 1 || out != "" || !strings.HasPrefix(errOut, want) {
			t.Errorf("record %s %s: exit %d, stdout %q, stderr %q; want 1 and %q", tc.flag, tc.value, code, out, errOut, want)
		}
	}
	// A budget of rated/(1+ro) must be finite and positive: ro is finite
	// and ≥ 0, checked before the trace is read.
	for _, ro := range []string{"-1", "-2", "-0.5", "NaN", "+Inf"} {
		code, out, errOut := runTrace("replay", "-in", "no-such-file.csv", "-ro", ro)
		if code != 1 || out != "" || !strings.Contains(errOut, "ro ") {
			t.Errorf("replay -ro %s: exit %d, stdout %q, stderr %q; want 1 and an ro error", ro, code, out, errOut)
		}
	}
}
