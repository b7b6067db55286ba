package core

// This file is the allocation-free ranking machinery behind the controller's
// freeze-candidate selection. The old path built a fresh []serverPower and
// fully sort.Slice'd it on every freezing tick — O(n log n) with an
// interface-dispatched comparator, ~2 MB/tick of garbage at 100k servers.
// The tick now refills a per-domain scratch slice and finds the freeze
// boundary from a band carried over from the last tick (carriedBoundary):
// one counting pass, then a select over the few servers inside the band. A
// tick whose boundary left the band partially partitions the whole scratch
// with quickselect (O(n) expected, introselect depth guard for the worst
// case). Only the few candidates the tick is about to make an API call for
// are sorted.

import (
	"math"
	"math/bits"
	"slices"
)

// cmpHot orders hottest-first, ties by ascending ID — the paper's freeze
// preference. The comparators are a strict total order (IDs are unique
// within a domain) and never see NaN: the rank fill maps missing or corrupt
// samples to the least-preferred end of the order, power -1 hottest-first
// and +Inf coldest-first.
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

// carriedBoundary is one domain's freeze boundary carried from tick to tick.
// Minute to minute the boundary power moves little, so the next tick's
// boundary is almost always near the last one: a counting pass over the
// refreshed ranking counts the servers strictly preferred to the band
// [b−w, b+w] and collects the servers inside it, and when the k-th preferred
// server lies inside, a select over the band alone (typically a few dozen of
// a row's 400 servers) finds it. The comparators are a strict total order, so
// the element found is the one quickselect over the whole domain returns;
// the band is only a hint, and any b and w give the same answer.
type carriedBoundary struct {
	b, w float64 // last tick's boundary power and the band's half-width
	// hits and fallbacks count the ticks served from the band and by the
	// select over the whole domain; only tests read them.
	hits, fallbacks int32
}

// topK returns selectTopKPref(rank, k, hot) and carries the boundary to the
// next tick. band is scratch with room for len(rank) elements; its contents
// are left undefined. On a band hit rank is not reordered.
func (cb *carriedBoundary) topK(rank, band []serverPower, k int, hot bool) serverPower {
	// Every server is placed by its signed distance from b alone, d = p − b
	// hottest-first and b − p coldest-first, so that d > w is strictly
	// preferred to the band in both orders. Rounding keeps d monotone in the
	// power, so the servers with d > w precede the band's and the band's the
	// rest, whatever the rounding. One comparison decides band membership,
	// which is rare and so predicted; the count is branch-free. An infinite
	// boundary leaves w infinite or NaN and the band unused: d would then be
	// NaN for an infinite power.
	if b, w := cb.b, cb.w; w <= math.MaxFloat64 {
		sign := 1.0
		if !hot {
			sign = -1
		}
		before := 0
		band = band[:0]
		for _, sp := range rank {
			d := sign * (sp.power - b)
			if math.Abs(d) <= w {
				band = append(band, sp)
			}
			if d > w {
				before++
			}
		}
		if before < k && k <= before+len(band) {
			cb.hits++
			return cb.carry(selectTopKPref(band, k-before, hot))
		}
	}
	cb.fallbacks++
	return cb.carry(selectTopKPref(rank, k, hot))
}

// carry makes b the next tick's band centre. The half-width is twice the
// boundary's last move, or half the last width if that is more, plus a floor
// relative to its power: a jump (a budget cut, a k that moved a long way)
// widens the band at once, and steady ticks narrow it by halves. After an
// unusable band (an infinite boundary) the width restarts from the floor.
func (cb *carriedBoundary) carry(b serverPower) serverPower {
	w := 1e-3 * math.Abs(b.power)
	if cb.w <= math.MaxFloat64 {
		w += max(2*math.Abs(b.power-cb.b), cb.w/2)
	}
	cb.b, cb.w = b.power, w
	return b
}
