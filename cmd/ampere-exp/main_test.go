package main

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestQuickAllGolden pins the stdout of `ampere-exp -quick -exp all` to
// results/exp_quick_output.txt: every table of every experiment, byte for
// byte. A refactor must leave it untouched; a deliberate behaviour change
// regenerates the file with
//
//	go run ./cmd/ampere-exp -quick -exp all > results/exp_quick_output.txt
//
// It drives main's own fan-out (render), so `go test -cpu 1,4` pins the
// bytes at the serial and at a fanned width, and the same run checks every
// quick claim of every experiment and the names of the plot-ready files -out
// writes. An id that checks no claim at -quick fails here. The bytes are
// floating-point sums, and off amd64 the compiler may fuse multiply-adds, so
// the comparison only runs there.
func TestQuickAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick experiment (~16 s)")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64; FMA fusing changes float bytes elsewhere")
	}
	want, err := os.ReadFile("../../results/exp_quick_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	exps := experiment.Catalog()
	got, claims, err := render(exps, true, 0, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range claims {
		if len(cs) == 0 {
			t.Errorf("%s checks no claim at -quick", exps[i].ID)
		}
		for _, c := range cs {
			if !c.Held {
				t.Errorf("%s: claim failed: %s", exps[i].ID, c)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	wantFiles := []string{"fig1.csv", "fig10_heavy.csv", "fig10_light.csv", "fig11scale.csv",
		"fig12.csv", "fig4.csv", "fig5.csv", "fig8.csv", "tournament.json"}
	if !slices.Equal(files, wantFiles) {
		t.Errorf("-out wrote %v, want %v", files, wantFiles)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	at := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of output>"
	}
	t.Fatalf("output diverges from results/exp_quick_output.txt at line %d (%d lines vs %d):\n got: %s\nwant: %s",
		i+1, len(gl), len(wl), at(gl), at(wl))
}

// TestSeedOverride: -seed lands on the experiment's own seed, so fig7 at its
// default seed 7 reproduces the default run and seed 3 does not.
func TestSeedOverride(t *testing.T) {
	fig7, _ := experiment.Lookup("fig7")
	run := func(seed uint64) []byte {
		out, _, err := render([]experiment.Experiment{fig7}, true, seed, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	def := run(0)
	if !bytes.Equal(run(7), def) {
		t.Error("-seed 7 differs from fig7's default seed 7")
	}
	if bytes.Equal(run(3), def) {
		t.Error("-seed 3 reproduces fig7's default run")
	}
}

func TestExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "bogus"}, &out, &errOut); code != 2 ||
		!strings.HasPrefix(errOut.String(), `unknown experiment "bogus" (want one of fig1, fig2, `) ||
		!strings.Contains(errOut.String(), ", tournament, all)\nUsage of ampere-exp:\n") {
		t.Errorf("-exp bogus: exit %d, stderr %q; want 2, the valid ids and the usage", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 ||
		!strings.HasPrefix(errOut.String(), "flag provided but not defined: -bogus\nUsage of ampere-exp:") {
		t.Errorf("-bogus: exit %d, stderr %q; want 2 and the usage", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("usage errors wrote to stdout: %q", out.String())
	}

	// A run's report goes to stdout, its progress line to stderr.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-quick", "-exp", "fig7"}, &out, &errOut); code != 0 ||
		!strings.HasPrefix(errOut.String(), "  [fig7 completed in ") {
		t.Errorf("-quick -exp fig7: exit %d, stderr %q; want 0 and fig7's progress line", code, errOut.String())
	}
	fig7, _ := experiment.Lookup("fig7")
	if want, _, _ := render([]experiment.Experiment{fig7}, true, 0, "", io.Discard); !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-quick -exp fig7 stdout differs from render's report:\n%s", out.String())
	}
}

// TestFailedClaimExitsOne pins the failure contract: a claim that does not
// hold is no run error, so every report still reaches stdout; the failed
// claim is named on stderr with its id, source, value and bound, and the
// exit code is 1.
func TestFailedClaimExitsOne(t *testing.T) {
	fake := func(id string, held bool) experiment.Experiment {
		return experiment.Experiment{ID: id, Run: func(w io.Writer, _ bool, _ uint64, _ string) ([]experiment.Claim, error) {
			io.WriteString(w, id+" report\n")
			return []experiment.Claim{{Name: id + " shape", Source: "Fig 0", Value: "3", Bound: "≥ 10", Held: held}}, nil
		}}
	}
	var out, errOut bytes.Buffer
	code := execute([]experiment.Experiment{fake("broken", false), fake("sound", true)}, true, 0, "", &out, &errOut)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if want := "broken report\n\nsound report\n\n"; out.String() != want {
		t.Errorf("stdout %q, want both reports %q", out.String(), want)
	}
	if want := "broken: claim failed: broken shape: measured 3, bound ≥ 10 (Fig 0)\n"; !strings.HasSuffix(errOut.String(), want) {
		t.Errorf("stderr %q, want it to end with %q", errOut.String(), want)
	}
	if strings.Contains(errOut.String(), "sound shape") {
		t.Errorf("stderr names the claim that held: %q", errOut.String())
	}
}
