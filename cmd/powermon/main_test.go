package main

import "testing"

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
