package main

import (
	"slices"
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
