package netsim

// slabPageBits sets a slab's page size: 1024 slots.
const slabPageBits = 10

// slab is a paged arena of T values named by uint32 handles, with a free
// list. Pages never move, so growing copies nothing, leaves no old array
// behind and a slot pointer stays valid while the slab grows. Handle 0 is
// never handed out, so it can mean "none".
type slab[T any] struct {
	pages [][]T
	next  uint32   // the next never-used handle; 0 until the first put
	free  []uint32 // released handles, reused last-in first-out
}

// at returns the slot of handle h, which must be live.
func (s *slab[T]) at(h uint32) *T {
	return &s.pages[h>>slabPageBits][h&(1<<slabPageBits-1)]
}

// put stores v in a free slot and returns its handle.
func (s *slab[T]) put(v T) uint32 {
	var h uint32
	if n := len(s.free); n > 0 {
		h = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		h = max(s.next, 1)
		s.next = h + 1
		if int(h>>slabPageBits) == len(s.pages) {
			s.pages = append(s.pages, make([]T, 1<<slabPageBits))
		}
	}
	*s.at(h) = v
	return h
}

// release zeroes h's slot, so the slab holds no stale pointers, and
// returns it to the free list. Releasing 0 does nothing.
func (s *slab[T]) release(h uint32) {
	if h != 0 {
		var zero T
		*s.at(h) = zero
		s.free = append(s.free, h)
	}
}
