package scheduler

import "math/bits"

// rowTree is a Fenwick tree over the per-row schedulable-server counts
// len(avail[r]), kept current by refreshAvail, so that drawing a row in
// proportion to its count costs O(log rows) instead of a scan of every row —
// at 250 rows the scan was a sixth of a placement-bound run.
type rowTree struct {
	// node[i] (1-based) is the sum of the counts of rows i−lowbit(i) … i−1.
	node  []int32
	total int
}

func newRowTree(rows int) rowTree { return rowTree{node: make([]int32, rows+1)} }

// add changes row r's count by d.
func (t *rowTree) add(r int, d int32) {
	t.total += int(d)
	for i := r + 1; i < len(t.node); i += i & -i {
		t.node[i] += d
	}
}

// find returns the first row whose inclusive prefix sum of counts exceeds x,
// or the row count when x ≥ total. The sums are integers, exact in float64,
// so each comparison is the one exact arithmetic would make.
func (t *rowTree) find(x float64) int {
	pos, sum := 0, 0
	// Descend from the largest power of two not above the row count.
	for step := 1 << bits.Len(uint(len(t.node)-1)) >> 1; step > 0; step >>= 1 {
		if next := pos + step; next < len(t.node) && float64(sum+int(t.node[next])) <= x {
			pos = next
			sum += int(t.node[next])
		}
	}
	return pos
}
