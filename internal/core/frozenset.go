package core

import "repro/internal/cluster"

// frozenSet tracks one domain's frozen servers as a dense bitmap over the
// domain's server-ID window. Domains are contiguous ID ranges in production
// (a row) and near-contiguous in the controlled experiments, so a bitmap
// indexed by id − base gives O(1) membership with no hashing — the frozen-set
// probes on the tick's ranking walk were the controller's single
// largest flat cost at 100k+ servers when they went through a map.
//
// Only domain members are ever added (the controller takes candidates from
// the domain's own ranking), so every set bit corresponds to a real server
// and iterating the bitmap yields ascending server IDs directly.
type frozenSet struct {
	bits []bool
	base cluster.ServerID
	n    int
}

// newFrozenSet sizes the bitmap to the domain's ID window. servers must be
// non-empty (Controller validation guarantees it).
func newFrozenSet(servers []cluster.ServerID) frozenSet {
	lo, hi := servers[0], servers[0]
	for _, id := range servers[1:] {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	return frozenSet{bits: make([]bool, int(hi-lo)+1), base: lo}
}

// has reports membership. IDs outside the window are never members.
func (f *frozenSet) has(id cluster.ServerID) bool {
	i := int(id - f.base)
	return i >= 0 && i < len(f.bits) && f.bits[i]
}

// add inserts a domain member (no-op when already present).
func (f *frozenSet) add(id cluster.ServerID) {
	if i := int(id - f.base); !f.bits[i] {
		f.bits[i] = true
		f.n++
	}
}

// remove deletes a member (no-op when absent).
func (f *frozenSet) remove(id cluster.ServerID) {
	if i := int(id - f.base); i >= 0 && i < len(f.bits) && f.bits[i] {
		f.bits[i] = false
		f.n--
	}
}

// len returns the member count.
func (f *frozenSet) len() int { return f.n }

// clear empties the set in place, keeping the bitmap allocation.
func (f *frozenSet) clear() {
	for i := range f.bits {
		f.bits[i] = false
	}
	f.n = 0
}

// appendIDs appends the members in ascending ID order.
func (f *frozenSet) appendIDs(ids []cluster.ServerID) []cluster.ServerID {
	for i, set := range f.bits {
		if set {
			ids = append(ids, f.base+cluster.ServerID(i))
		}
	}
	return ids
}
