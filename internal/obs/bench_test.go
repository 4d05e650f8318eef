package obs

import (
	"testing"
	"time"
)

// The counter/histogram hot path is what every decoded MRT record pays;
// BENCH_obs.json at the repo root fences each benchmark below at 0
// allocs/op, and CI's allocation fence step runs them against it.

func BenchmarkObsCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_ops_total", "ops")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkObsCounterWithLookup(b *testing.B) {
	// The uncached path: one family-lock read per op. Hot paths should
	// cache the child instead (BenchmarkObsCounter).
	r := NewRegistry()
	v := r.CounterVec("bench_lookup_total", "ops", "worker")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.With("w0").Inc()
		}
	})
}

func BenchmarkObsHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_latency_seconds", "latency", DefBuckets)
	d := (250 * time.Microsecond).Seconds()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(d)
		}
	})
}

func BenchmarkObsGaugeSet(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("bench_level", "level")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g.Set(1)
		}
	})
}
