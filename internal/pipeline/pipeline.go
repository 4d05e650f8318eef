// Package pipeline is the parallel ingestion engine behind the detection
// paths: it decodes MRT archives concurrently in record-aligned chunks,
// fans per-record work out over a bounded worker pool, and hands the
// per-chunk accumulators back in stream order so callers can merge them
// deterministically.
//
// The engine is deliberately generic: it knows MRT framing but nothing
// about zombie detection. The zombie package builds its history on top of
// FoldStreams (one HistoryBuilder per chunk, sealed in chunk order) and
// its lifespan tracking on FoldRecords and Engine.For; every worker count
// shares the per-record semantics and differs only in scheduling, and the
// differential harness (internal/zombie/diff_test.go, next to its oracles;
// this package keeps the exported-API half) checks the outputs bit for bit.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"

	"zombiescope/internal/obs"
)

// Engine bounds the concurrency of a pipeline run.
type Engine struct {
	// Workers is the maximum number of concurrent goroutines (<= 0 means
	// GOMAXPROCS).
	Workers int
	// Metrics receives per-stage counters when non-nil.
	Metrics *Metrics
	// Trace, when non-nil, parents the engine's stage spans; otherwise
	// stage spans are roots on the installed obs tracer (and free no-ops
	// when tracing is disabled).
	Trace *obs.Span
	// Borrow switches FoldRecords to zero-copy record decoding: BGP4MP
	// records are scratch structs reused across a chunk's records and
	// their Data aliases the archive bytes. Folds must consume each record
	// before returning from fn (or retain only TABLE_DUMP_V2 records,
	// which are always freshly allocated).
	Borrow bool
}

func (e *Engine) workers() int {
	if e == nil || e.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

func (e *Engine) metrics() *Metrics {
	if e == nil || e.Metrics == nil {
		return Default
	}
	return e.Metrics
}

// span starts a stage span under the engine's trace parent (or as a root
// when the engine carries none).
func (e *Engine) span(name string) *obs.Span {
	if e != nil && e.Trace != nil {
		return e.Trace.Start(name)
	}
	return obs.StartSpan(name)
}

// For runs fn(i) for every i in [0, n), at most Workers at a time. With one
// worker the calls happen inline in index order, so a single-worker engine
// is a plain loop — the property the differential harness leans on.
func (e *Engine) For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := e.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
