//go:build race

package mrt

// raceEnabled gates allocation-count assertions: the race runtime adds
// bookkeeping allocations that make AllocsPerRun meaningless.
const raceEnabled = true
