package sim

// Slab is a grow-only array of records addressed by int32 slot, stored in
// fixed-size pages. The owner recycles slots through its own free list and
// extends the slab only when that is empty, so the slab's size is the
// owner's high-water mark — which is why it is paged: growing adds one page,
// never copies, never over-allocates by more than a page, and never moves a
// record, so a pointer from At stays valid while callbacks schedule more
// work. The zero Slab is empty and ready to use.
type Slab[T any] struct {
	pages [][]T
	n     int32
}

const (
	slabPageBits = 9
	slabPageLen  = 1 << slabPageBits
)

// Len returns the number of slots handed out by Add.
func (s *Slab[T]) Len() int { return int(s.n) }

// At returns the record in slot i, which must be below Len.
func (s *Slab[T]) At(i int32) *T {
	return &s.pages[i>>slabPageBits][i&(slabPageLen-1)]
}

// Add extends the slab by one zero record and returns its slot.
func (s *Slab[T]) Add() int32 {
	i := s.n
	if int(i>>slabPageBits) == len(s.pages) {
		s.pages = append(s.pages, make([]T, slabPageLen))
	}
	s.n++
	return i
}
