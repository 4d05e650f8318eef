// Package obs is the repo's dependency-free telemetry layer: a labeled
// metrics registry (counters, gauges, bucketed histograms) read one way —
// the Prometheus text exposition for scrapers, and Values, keyed by the
// same series names, for in-process readers — plus component-scoped
// structured logging on log/slog and lightweight span tracing exportable
// as Chrome trace-event JSON.
//
// The design follows the Prometheus client model without the dependency:
// a Registry holds metric families, a family holds one child per label
// combination, and children are cached handles whose hot path is a single
// atomic operation. Subsystems register families once (idempotently) and
// keep the child handles on their own structs, so per-record accounting
// never takes the family lock.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates family types for exposition and registration
// conflict checks.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	hookMu sync.Mutex
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a kind, label names, and one child
// per label-value combination.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.RWMutex
	children map[string]*child
}

// child pairs one label-value combination's metric with the values
// themselves. The values are stored, not reconstructed from the joined
// map key at exposition time: a hostile label value containing the
// separator byte (collector names come off the wire) would otherwise
// split into the wrong number of values and silently shift every label
// after it.
type child struct {
	values []string
	metric any // *Counter | *Gauge | *Histogram
}

// labelSep separates joined label values in child keys; 0xff cannot occur
// in valid UTF-8 label values, so the join is unambiguous for well-formed
// input (and the stored child.values keep exposition correct even for
// malformed input).
const labelSep = "\xff"

// register returns the named family, creating it if needed. Re-registering
// with the same kind and label names is idempotent; a mismatch panics, as
// it is always a programming error.
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: conflicting registration of %q: %s%v vs %s%v",
				name, f.kind, f.labels, kind, labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child returns (creating if needed) the family child for the given label
// values, using mk to build a fresh one.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s: %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c.metric
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.metric
	}
	c = &child{values: append([]string(nil), values...), metric: mk()}
	f.children[key] = c
	return c.metric
}

// delete drops the child for the given label values, if present. Handles
// previously returned by With keep working but no longer export; a later
// With for the same values creates a fresh child.
func (f *family) delete(values []string) {
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	delete(f.children, key)
	f.mu.Unlock()
}

// OnScrape registers fn to run at the start of every WritePrometheus and
// Values call, before any family is read. It is the seam for lazily-computed
// gauges — runtime stats, journal watermarks — that are only worth
// refreshing when someone is looking. Hooks run outside the registry
// locks, so they may freely create or set metrics.
func (r *Registry) OnScrape(fn func()) {
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

func (r *Registry) runScrapeHooks() {
	r.hookMu.Lock()
	hooks := r.hooks
	r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; the nil Counter is a no-op sink.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// Counter registers (idempotently) an unlabeled counter family and
// returns its single child.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (idempotently) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// With returns the child counter for the given label values, creating it
// on first use. Callers on hot paths should cache the returned handle.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use; the nil Gauge is a no-op sink.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// Gauge registers (idempotently) an unlabeled gauge family and returns
// its single child.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (idempotently) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// Delete drops the child for the given label values from the exposition.
// Bounded-lifetime label sets (per-subscriber session gauges) call it on
// teardown so series cardinality tracks live sessions, not history.
func (v *GaugeVec) Delete(values ...string) { v.f.delete(values) }

// DefBuckets are the default latency buckets, in seconds: wide enough for
// both microsecond-scale decode chunks and multi-second archive folds.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a bucketed distribution (Prometheus semantics: cumulative
// buckets at exposition, plus sum and count). Observations are float64 —
// by convention seconds for latency series. All methods are safe for
// concurrent use; the nil Histogram is a no-op sink.
type Histogram struct {
	bounds []float64       // upper bounds, sorted ascending
	counts []atomic.Uint64 // per-bucket (non-cumulative); len = len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the upper bounds and the cumulative counts at each
// bound (Prometheus `le` semantics, +Inf excluded — it equals Count).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	cumulative = make([]uint64, len(h.bounds))
	var acc uint64
	for i := range h.bounds {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return h.bounds, cumulative
}

// Quantile estimates the q-quantile (0..1) of the observed distribution
// by linear interpolation inside the owning bucket — the Prometheus
// histogram_quantile estimate, computed locally so /statusz can report
// p50/p99/p999 without a query engine. Observations in the +Inf bucket
// clamp to the highest finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, bound := range h.bounds {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + (bound-lower)*frac
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSummary is a histogram condensed to the numbers a dashboard
// line can carry: count, sum, and the latency percentiles operators
// actually watch.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Summary returns the histogram's quantile summary. Safe on nil (all
// zeros). Concurrent observations may land between the count and bucket
// reads; the drift is one sample, irrelevant for monitoring.
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	return HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// HistogramVec is a histogram family with labels; every child shares the
// family's bucket bounds.
type HistogramVec struct{ f *family }

// Histogram registers (idempotently) an unlabeled histogram family with
// the given bucket upper bounds (nil means DefBuckets) and returns its
// single child.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (idempotently) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, bounds)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}
