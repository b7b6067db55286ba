package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden pins the example's six-hour controlled run to
// testdata/out.golden.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/out.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("stdout differs from testdata/out.golden:\n%s", out.String())
	}
}
