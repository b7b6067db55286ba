package core

// This file is the allocation-free ranking machinery behind the controller's
// freeze-candidate selection. The old path built a fresh []serverPower and
// fully sort.Slice'd it on every freezing tick — O(n log n) with an
// interface-dispatched comparator, ~2 MB/tick of garbage at 100k servers.
// The tick now refills a per-domain scratch slice, partially partitions it
// with quickselect (O(n) expected, introselect depth guard for the worst
// case), and only sorts the few candidates it is about to make an API call
// for.

import (
	"math/bits"
	"slices"
)

// cmpHot orders hottest-first, ties by ascending ID — the paper's freeze
// preference. The comparators are a strict total order (IDs are unique
// within a domain) and never see NaN: the rank fill maps missing or corrupt
// samples to power -1.
func cmpHot(a, b serverPower) int {
	if a.power != b.power {
		if a.power > b.power {
			return -1
		}
		return 1
	}
	if a.id != b.id {
		if a.id < b.id {
			return -1
		}
		return 1
	}
	return 0
}

// cmpCold orders coldest-first, ties by ascending ID (the ablation policy).
func cmpCold(a, b serverPower) int {
	if a.power != b.power {
		if a.power < b.power {
			return -1
		}
		return 1
	}
	if a.id != b.id {
		if a.id < b.id {
			return -1
		}
		return 1
	}
	return 0
}

// cmpHotRev / cmpColdRev are the release orders: the reverse of the freeze
// preference, matching the old path's backwards walk over the full ranking.
func cmpHotRev(a, b serverPower) int { return cmpHot(b, a) }

func cmpColdRev(a, b serverPower) int { return cmpCold(b, a) }

// lessPref reports whether a strictly precedes b in freeze preference:
// power-descending when hot, power-ascending otherwise, ties by ascending ID.
// It is the branch form of cmpHot/cmpCold — small enough to inline, which
// matters because the quickselect pass below performs ~2n comparisons per
// controlled tick per domain and an indirect comparator call per element was
// about a third of the whole controller tick at 100k+ servers. The hot flag
// is loop-invariant at every call site, so the branch predicts perfectly.
func lessPref(a, b serverPower, hot bool) bool {
	if a.power != b.power {
		if hot {
			return a.power > b.power
		}
		return a.power < b.power
	}
	return a.id < b.id
}

// selectTopKPref partially partitions sp in place so that sp[:k] holds the k
// most-preferred elements (hot=true ⇒ cmpHot order, hot=false ⇒ cmpCold
// order; in unspecified order) and returns the boundary — the least-preferred
// member of that top set, i.e. the element that a full sort would place at
// index k-1. Expected O(len(sp)) via quickselect with median-of-three pivots.
// Requires 1 ≤ k ≤ len(sp).
//
// Introselect guard: median-of-three Lomuto still degrades to O(n²) on
// adversarial orderings (e.g. an organ-pipe permutation re-partitioned every
// tick). After 2·⌈log₂ n⌉ partitions without converging, the remaining window
// is handed to slices.SortFunc (O(n log n) worst case). The fallback is
// result-identical, not just boundary-identical: everything outside [lo,hi]
// is already correctly partitioned relative to the window, the target index
// k−1 always stays inside it, and sorting the window places the exact same
// element at k−1 as full partitioning would.
func selectTopKPref(sp []serverPower, k int, hot bool) serverPower {
	b, _ := selectTopKPrefDepth(sp, k, hot, 2*bits.Len(uint(len(sp))))
	return b
}

// selectTopKPrefDepth is selectTopKPref with an explicit partition budget,
// and reports how many partitions it spent (tests force the budget to 0 to
// exercise the sort fallback on its own, and hold the count to the budget on
// adversarial orderings).
func selectTopKPrefDepth(sp []serverPower, k int, hot bool, depth int) (b serverPower, partitions int) {
	lo, hi := 0, len(sp)-1
	for lo < hi {
		if partitions == depth {
			cmp := cmpHot
			if !hot {
				cmp = cmpCold
			}
			slices.SortFunc(sp[lo:hi+1], cmp)
			break
		}
		partitions++
		p := partitionPref(sp, lo, hi, hot)
		switch {
		case p == k-1:
			return sp[p], partitions
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return sp[k-1], partitions
}

// partitionPref is a Lomuto partition of sp[lo:hi+1] around a median-of-three
// pivot, returning the pivot's final index.
func partitionPref(sp []serverPower, lo, hi int, hot bool) int {
	mid := lo + (hi-lo)/2
	if lessPref(sp[mid], sp[lo], hot) {
		sp[mid], sp[lo] = sp[lo], sp[mid]
	}
	if lessPref(sp[hi], sp[mid], hot) {
		sp[hi], sp[mid] = sp[mid], sp[hi]
		if lessPref(sp[mid], sp[lo], hot) {
			sp[mid], sp[lo] = sp[lo], sp[mid]
		}
	}
	sp[mid], sp[hi] = sp[hi], sp[mid]
	pivot := sp[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if lessPref(sp[j], pivot, hot) {
			sp[i], sp[j] = sp[j], sp[i]
			i++
		}
	}
	sp[i], sp[hi] = sp[hi], sp[i]
	return i
}
