package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// runPowermon runs the command on args. The listen address is a port no
// listener accepts, so a run that got past validation would fail at once
// instead of binding and serving.
func runPowermon(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(append([]string{"-addr", ":-1"}, args...), &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestBuildStackRejectsPartialRacks: a row is whole 20-server racks, so a
// row size that is not a positive multiple of 20 is refused instead of
// being floored to fewer servers than the log and /whatif report.
func TestBuildStackRejectsPartialRacks(t *testing.T) {
	for _, n := range []int{30, 10, 0, -20} {
		cfg := runConfig{rows: 1, rowServers: n, target: 0.75, ro: 0.25, seed: 1}
		if _, err := buildStack(cfg, nil, nil); err == nil {
			t.Errorf("row-servers %d accepted", n)
		}
	}
}

// TestRunRejectsNonPositiveTick: the simulation loop ticks once per -tick of
// real time, and a ticker cannot run at a zero or negative interval, so run
// refuses such a tick before it builds anything.
func TestRunRejectsNonPositiveTick(t *testing.T) {
	for _, tick := range []string{"0", "-1s"} {
		code, _, errOut := runPowermon("-tick", tick, "-rows", "1", "-row-servers", "40")
		if code != 1 || !strings.HasPrefix(errOut, "powermon: tick ") {
			t.Errorf("-tick %s: exit %d, stderr %q; want 1 and a tick error", tick, code, errOut)
		}
	}
}

// A demand-response event has the bounds of a scenario's: the constant is
// copied so the command does not link the scenario loader.
func TestEventBoundIsTheScenarios(t *testing.T) {
	if maxMinutes != scenario.MaxEventMinutes {
		t.Errorf("powermon bounds events at %d minutes, scenarios at %d", maxMinutes, scenario.MaxEventMinutes)
	}
}

// TestExitCodes pins powermon's exits without serving: 2 for a flag the
// command does not define, 1 for a configuration it refuses. The row budget
// is rated/(1+ro), so ro must be finite and ≥ 0, and the target a fraction
// of rated in (0,1]; the -ampere=false cases reach no controller or breaker
// that would refuse the budget on their own. A demand-response event starts
// and dwells within scenario.MaxEventMinutes (finite, so minutesToTime
// cannot overflow), at a depth in (0,1) and a ramp in [0,1]; -dr-at 0 means
// no event.
func TestExitCodes(t *testing.T) {
	code, out, errOut := runPowermon("-bogus")
	if code != 2 || out != "" || !strings.Contains(errOut, "flag provided but not defined: -bogus\nUsage of powermon:") {
		t.Errorf("-bogus: exit %d, stdout %q, stderr %q; want 2 and the usage", code, out, errOut)
	}
	if code, _, errOut := runPowermon("-h"); code != 0 || !strings.HasPrefix(errOut, "Usage of powermon:") {
		t.Errorf("-h: exit %d, stderr %q; want 0 and the usage", code, errOut)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-tick", "0"}, "powermon: tick "},
		{[]string{"-journal-cap", "-5"}, "powermon: journal-cap -5 "},
		{[]string{"-journal-cap", "0"}, "powermon: journal-cap 0 "},
		{[]string{"-row-servers", "30"}, "powermon: row-servers 30 "},
		{[]string{"-ro", "-1"}, "powermon: ro -1 "},
		{[]string{"-ro", "-1", "-ampere=false"}, "powermon: ro -1 "},
		{[]string{"-ro", "-1", "-ampere=false", "-obs=false"}, "powermon: ro -1 "},
		{[]string{"-ro", "-2"}, "powermon: ro -2 "},
		{[]string{"-ro", "NaN"}, "powermon: ro NaN "},
		{[]string{"-ro", "+Inf"}, "powermon: ro +Inf "},
		{[]string{"-target", "-1"}, "powermon: target -1 "},
		{[]string{"-target", "0"}, "powermon: target 0 "},
		{[]string{"-target", "1.5"}, "powermon: target 1.5 "},
		{[]string{"-target", "NaN"}, "powermon: target NaN "},
		{[]string{"-dr-at", "NaN"}, "powermon: dr-at NaN "},
		{[]string{"-dr-at", "-5"}, "powermon: dr-at -5 "},
		{[]string{"-dr-at", "+Inf"}, "powermon: dr-at +Inf "},
		{[]string{"-dr-at", "1e300"}, "powermon: dr-at 1e+300 "},
		{[]string{"-dr-at", "10", "-dr-dwell", "NaN"}, "powermon: dr-dwell NaN "},
		{[]string{"-dr-at", "10", "-dr-dwell", "1e300"}, "powermon: dr-dwell 1e+300 "},
		{[]string{"-dr-at", "10", "-dr-depth", "NaN"}, "powermon: dr-depth NaN "},
		{[]string{"-dr-at", "10", "-dr-ramp", "NaN"}, "powermon: dr-ramp NaN "},
	} {
		code, out, errOut := runPowermon(tc.args...)
		if code != 1 || out != "" || !strings.HasPrefix(errOut, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1 and %q", tc.args, code, out, errOut, tc.want)
		}
	}
}
