package netsim

// minHeap is an index-addressed binary min-heap of values. The element
// type carries its own ordering through the type parameter constraint, so
// push/pop compile down to direct calls and inlined swaps — no interface
// dispatch through heap.Interface, no any-boxing on Push/Pop, and no
// per-element pointer allocation. For fully distinct keys (the event
// queue's (at, seq) always is: seq strictly increases) pop order is the
// exact ascending key order, identical to container/heap over the same
// elements.
type minHeap[E interface{ before(E) bool }] struct {
	items []E
}

func (h *minHeap[E]) len() int { return len(h.items) }

// peek returns the minimum element without removing it. len must be > 0.
func (h *minHeap[E]) peek() E { return h.items[0] }

// push inserts e, sifting it up to its heap position.
func (h *minHeap[E]) push(e E) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].before(h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// pop removes and returns the minimum element. len must be > 0.
func (h *minHeap[E]) pop() E {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.items[r].before(h.items[l]) {
			m = r
		}
		if !h.items[m].before(h.items[i]) {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return top
}
