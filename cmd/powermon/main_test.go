package main

import (
	"strings"
	"testing"
	"time"
)

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
	for _, tick := range []time.Duration{0, -time.Second} {
		cfg := runConfig{addr: "127.0.0.1:0", tick: tick, rows: 1, rowServers: 40,
			target: 0.75, ro: 0.25, ampere: true, seed: 1}
		err := run(cfg)
		if err == nil || !strings.Contains(err.Error(), "tick") {
			t.Errorf("tick %v: run returned %v, want a tick error", tick, err)
		}
	}
}
