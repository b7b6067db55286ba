package main

import (
	"bytes"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// -exp all runs order and single ids look up runners: every ordered id needs
// a runner, and a runner missing from order (other than the fig10 alias of
// table2) would be silently skipped by -exp all.
func TestOrderAndRunnersAgree(t *testing.T) {
	for _, id := range order {
		if runners[id] == nil {
			t.Errorf("order lists %q, which has no runner", id)
		}
	}
	for id := range runners {
		if id != "fig10" && !slices.Contains(order, id) {
			t.Errorf("runner %q is not in order, so -exp all never runs it", id)
		}
	}
}

// TestQuickAllGolden pins the stdout of `ampere-exp -quick -exp all` to
// results/exp_quick_output.txt: every table of every experiment, byte for
// byte. A refactor must leave it untouched; a deliberate behaviour change
// regenerates the file with
//
//	go run ./cmd/ampere-exp -quick -exp all > results/exp_quick_output.txt
//
// It drives main's own fan-out (render), so `go test -cpu 1,4` pins the
// bytes at the serial and at a fanned width. The bytes are floating-point
// sums, and off amd64 the compiler may fuse multiply-adds, so the
// comparison only runs there.
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
	got, err := render(order, runCtx{quick: true})
	if err != nil {
		t.Fatal(err)
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
