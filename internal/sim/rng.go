package sim

import (
	"math"
	"math/rand"
	"strconv"
)

// smGamma is SplitMix64's increment: a stream's state advances by it per draw.
const smGamma = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 mixing function. It is used both as a
// rand.Source64 and to derive independent stream seeds from a master seed.
func splitmix64(x uint64) uint64 {
	x += smGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// smNext advances a SplitMix64 state one step and returns the output.
func smNext(state *uint64) uint64 {
	*state += smGamma
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// smSource is a SplitMix64-based rand.Source64: tiny state, excellent
// statistical quality for simulation purposes, and trivially seedable.
type smSource struct{ state uint64 }

func (s *smSource) Seed(seed int64) { s.state = uint64(seed) }
func (s *smSource) Uint64() uint64  { return smNext(&s.state) }
func (s *smSource) Int63() int64    { return int64(s.Uint64() >> 1) }

// NewRNG returns a deterministic *rand.Rand seeded with seed.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(&smSource{state: RNGState(seed)})
}

// RNGState returns the 8 bytes of generator state NewRNG(seed) starts from.
// A holder of a million streams keeps this word per stream instead of a
// *rand.Rand each, and draws from it with NormFloat64, ExpFloat64 and
// Float64.
func RNGState(seed uint64) uint64 { return splitmix64(seed) }

// SubSeed derives an independent stream seed from a master seed and a label.
// Components that need their own randomness (per-row arrival processes,
// per-server noise, the duration sampler, …) each call SubSeed with a unique
// label so that adding a component never perturbs the streams of the others.
func SubSeed(master uint64, label string) uint64 {
	return splitmix64(master ^ fnv1a(fnvOffset, label))
}

// SubSeedN is SubSeed(master, prefix+strconv.Itoa(n)) without building the
// label: the per-server streams of a million-server fleet are seeded in a
// loop, and the label would be its only allocation.
func SubSeedN(master uint64, prefix string, n int) uint64 {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(n), 10)
	return splitmix64(master ^ fnv1a(fnv1a(fnvOffset, prefix), digits))
}

// The 64-bit FNV-1a parameters, as in hash/fnv.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds s into the FNV-1a hash h: hash/fnv's New64a without the
// hash.Hash64 and the []byte copy of the label, and resumable, so a label
// can be hashed in pieces.
func fnv1a[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// SubRNG is shorthand for NewRNG(SubSeed(master, label)).
func SubRNG(master uint64, label string) *rand.Rand {
	return NewRNG(SubSeed(master, label))
}

// Poisson draws from a Poisson distribution with the given mean using
// inversion for small means and a normal approximation for large ones. A
// mean that is not positive — NaN included, on which the inversion loop
// below would never terminate — draws nothing and returns 0.
func Poisson(r *rand.Rand, mean float64) int {
	if !(mean > 0) {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction; exact Poisson
		// sampling at these means is unnecessary for workload generation.
		n := int(r.NormFloat64()*math.Sqrt(mean) + mean + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
