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
// The bytes are floating-point sums, and off amd64 the compiler may fuse
// multiply-adds, so the comparison only runs there.
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
	rc := runCtx{quick: true, parallel: 2}
	var got bytes.Buffer
	for _, id := range order {
		var buf bytes.Buffer
		if err := runners[id](&buf, rc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// main prints each non-empty report followed by a blank line.
		if buf.Len() > 0 {
			got.Write(buf.Bytes())
			got.WriteByte('\n')
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
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
