package main

import (
	"container/heap"
	"sort"
	"time"
)

// The box this benchmark was built on is shared: a neighbour on the same
// cache slows every CPU-bound number by 15–30 % for minutes at a time, then
// leaves. Left alone, that drift is wider than the regression bounds. So
// every run times a probe beside its operations and reports its timings as
// they would read at the reference machine speed: measured × probeRef ÷
// probe. Over 24 same-seed runs this halved the quartile spread (17 → 9 %
// on sim-beacon, 19 → 10 % on live-drain, 10 → 7 % on hunt-author). The raw
// numbers and the probe are printed on stderr.

// probeRef is what the probe takes on the builder's box when it is quiet.
const probeRef = 30 * time.Millisecond

// machineSpeed is the factor that scales a measured time to the reference
// machine speed, from the probe samples taken beside it.
func machineSpeed(probeMillis []float64) float64 {
	return float64(probeRef) / 1e6 / median(probeMillis)
}

// probeMillis runs the probe once and returns its time in milliseconds.
func probeMillis() float64 { return float64(probe()) / 1e6 }

// probe times a fixed synthetic job — a sort, a map fill and a heap drain
// over a few hundred thousand words, the cache- and allocation-bound mix
// the product's hot loops have — and returns how long it took. It runs no
// product code, so it reads the machine, not the program.
func probe() time.Duration {
	start := time.Now()
	const n = 1 << 17
	xs := make([]uint64, n)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
	}
	m := make(map[uint64]uint32, n/4)
	for i, v := range xs[:n/4] {
		m[v] = uint32(i)
	}
	h := make(wordHeap, 0, n/4)
	for _, v := range xs[n/4 : n/2] {
		heap.Push(&h, v^uint64(m[xs[v%(n/4)]]))
	}
	for h.Len() > 0 {
		heap.Pop(&h)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return time.Since(start)
}

type wordHeap []uint64

func (h wordHeap) Len() int           { return len(h) }
func (h wordHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h wordHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *wordHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *wordHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}
