package pipeline

import (
	"sync"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/obs"
)

// Metrics holds the pipeline's per-stage instruments on an obs registry:
// counters for throughput, a stage-labeled latency histogram for the
// distributions. Snapshot keeps the original flat-map shape as a thin view
// over the registry for in-process readers (statusz Counters, zombiehunt
// -progress, the soaks); the registry side serves the same state as
// Prometheus text exposition, the only HTTP form.
//
// The zero value is usable (it lazily builds a private registry), all
// methods are safe for concurrent use, and the nil *Metrics is a valid
// no-op sink.
type Metrics struct {
	once sync.Once
	reg  *obs.Registry

	// Decode stage.
	filesDecoded   *obs.Counter
	chunksDecoded  *obs.Counter
	recordsDecoded *obs.Counter
	bytesDecoded   *obs.Counter
	decodeErrors   *obs.Counter

	// Shard / merge / detection stages.
	eventsSharded      *obs.Counter
	shardsMerged       *obs.Counter
	intervalsEvaluated *obs.Counter

	// Per-stage wall-time distributions, one histogram child per stage.
	decodeSeconds *obs.Histogram
	buildSeconds  *obs.Histogram
	mergeSeconds  *obs.Histogram
	detectSeconds *obs.Histogram

	// Intern-table counters, mirrored from the bgp package totals by
	// syncIntern at every scrape.
	internHits   *obs.Counter
	internMisses *obs.Counter

	// internMu guards the last-seen package totals so deltas are exact
	// even with concurrent scrapes.
	internMu   sync.Mutex
	lastHits   uint64
	lastMisses uint64
}

// Default is the process-wide metrics sink, used by engines that do not
// carry their own (the pattern expvar uses for its package-level map).
var Default = NewMetrics(nil)

// NewMetrics builds a Metrics registered on reg (nil: a fresh private
// registry). Registration is idempotent, so several Metrics may share one
// registry only if they are the same instance; distinct instances need
// distinct registries.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{reg: reg}
	m.init()
	return m
}

// init lazily registers the instrument families, so the zero value works.
func (m *Metrics) init() {
	m.once.Do(func() {
		if m.reg == nil {
			m.reg = obs.NewRegistry()
		}
		m.filesDecoded = m.reg.Counter("pipeline_files_decoded_total", "Archive files fully decoded.")
		m.chunksDecoded = m.reg.Counter("pipeline_chunks_decoded_total", "Record-aligned chunks decoded.")
		m.recordsDecoded = m.reg.Counter("pipeline_records_decoded_total", "MRT records decoded.")
		m.bytesDecoded = m.reg.Counter("pipeline_bytes_decoded_total", "Archive bytes consumed.")
		m.decodeErrors = m.reg.Counter("pipeline_decode_errors_total", "Malformed records encountered.")
		m.eventsSharded = m.reg.Counter("pipeline_events_sharded_total", "RIB entries routed to lifespan-tracking shards (the history build does not shard).")
		m.shardsMerged = m.reg.Counter("pipeline_shards_merged_total", "History chunk builders sealed plus lifespan shards merged.")
		m.intervalsEvaluated = m.reg.Counter("pipeline_intervals_evaluated_total", "Beacon intervals evaluated.")
		stages := m.reg.HistogramVec("pipeline_stage_seconds",
			"Wall time of pipeline stages; the build stage is observed by lifespan tracking only.", obs.DefBuckets, "stage")
		m.decodeSeconds = stages.With("decode")
		m.buildSeconds = stages.With("build")
		m.mergeSeconds = stages.With("merge")
		m.detectSeconds = stages.With("detect")
		m.internHits = m.reg.Counter("pipeline_intern_hits_total", "Intern table lookups served from the table.")
		m.internMisses = m.reg.Counter("pipeline_intern_misses_total", "Intern table lookups that built a new entry.")
		m.reg.OnScrape(m.syncIntern)
	})
}

// Registry returns the registry backing the metrics, for Prometheus
// exposition alongside other subsystems.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	m.init()
	return m.reg
}

// AddDecoded accounts one decoded chunk's records and bytes.
func (m *Metrics) AddDecoded(records, bytes int) {
	if m == nil {
		return
	}
	m.init()
	m.chunksDecoded.Add(1)
	m.recordsDecoded.Add(int64(records))
	m.bytesDecoded.Add(int64(bytes))
}

// AddFiles accounts fully decoded archive files.
func (m *Metrics) AddFiles(n int) {
	if m == nil {
		return
	}
	m.init()
	m.filesDecoded.Add(int64(n))
}

// AddDecodeError accounts a malformed record.
func (m *Metrics) AddDecodeError() {
	if m == nil {
		return
	}
	m.init()
	m.decodeErrors.Inc()
}

// AddSharded accounts items routed to shards. Only lifespan tracking
// shards; the history build seals its chunk builders directly.
func (m *Metrics) AddSharded(n int) {
	if m == nil {
		return
	}
	m.init()
	m.eventsSharded.Add(int64(n))
}

// AddMerged accounts merged fragments: history chunk builders sealed,
// lifespan shards merged.
func (m *Metrics) AddMerged(n int) {
	if m == nil {
		return
	}
	m.init()
	m.shardsMerged.Add(int64(n))
}

// AddIntervals accounts evaluated beacon intervals.
func (m *Metrics) AddIntervals(n int) {
	if m == nil {
		return
	}
	m.init()
	m.intervalsEvaluated.Add(int64(n))
}

// ObserveDecode records decode stage wall time.
func (m *Metrics) ObserveDecode(d time.Duration) {
	if m != nil {
		m.init()
		m.decodeSeconds.Observe(clampSeconds(d))
	}
}

// ObserveBuild records shard-build stage wall time (lifespan tracking
// only).
func (m *Metrics) ObserveBuild(d time.Duration) {
	if m != nil {
		m.init()
		m.buildSeconds.Observe(clampSeconds(d))
	}
}

// ObserveMerge records merge stage wall time.
func (m *Metrics) ObserveMerge(d time.Duration) {
	if m != nil {
		m.init()
		m.mergeSeconds.Observe(clampSeconds(d))
	}
}

// ObserveDetect records detection stage wall time.
func (m *Metrics) ObserveDetect(d time.Duration) {
	if m != nil {
		m.init()
		m.detectSeconds.Observe(clampSeconds(d))
	}
}

// syncIntern advances the intern counters by the bgp intern tables' growth
// since the last sync. The decode path only touches cheap package atomics;
// running as the registry's scrape hook makes the counters current
// wherever they are read, whichever path (batch fold, stream detector)
// did the interning.
func (m *Metrics) syncIntern() {
	path, agg := bgp.InternStats()
	hits, misses := path.Hits+agg.Hits, path.Misses+agg.Misses
	m.internMu.Lock()
	dHits, dMisses := hits-m.lastHits, misses-m.lastMisses
	m.lastHits, m.lastMisses = hits, misses
	m.internMu.Unlock()
	m.internHits.Add(int64(dHits))
	m.internMisses.Add(int64(dMisses))
}

func clampSeconds(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return d.Seconds()
}

// StageSummaries returns count/sum/quantile summaries of the pipeline
// stage histograms, keyed by stage name — the /statusz view of
// pipeline_stage_seconds. A nil receiver returns nil.
func (m *Metrics) StageSummaries() map[string]obs.HistogramSummary {
	if m == nil {
		return nil
	}
	m.init()
	return map[string]obs.HistogramSummary{
		"decode": m.decodeSeconds.Summary(),
		"build":  m.buildSeconds.Summary(),
		"merge":  m.mergeSeconds.Summary(),
		"detect": m.detectSeconds.Summary(),
	}
}

// Snapshot returns the counters as a flat map, expvar style. The keys and
// semantics predate the registry; the *_us entries are the histogram sums
// in microseconds. A nil receiver returns the all-zero snapshot.
func (m *Metrics) Snapshot() map[string]int64 {
	out := map[string]int64{
		"files_decoded": 0, "chunks_decoded": 0, "records_decoded": 0,
		"bytes_decoded": 0, "decode_errors": 0, "events_sharded": 0,
		"shards_merged": 0, "intervals_evaluated": 0,
		"decode_us": 0, "build_us": 0, "merge_us": 0, "detect_us": 0,
	}
	if m == nil {
		return out
	}
	m.init()
	out["files_decoded"] = m.filesDecoded.Value()
	out["chunks_decoded"] = m.chunksDecoded.Value()
	out["records_decoded"] = m.recordsDecoded.Value()
	out["bytes_decoded"] = m.bytesDecoded.Value()
	out["decode_errors"] = m.decodeErrors.Value()
	out["events_sharded"] = m.eventsSharded.Value()
	out["shards_merged"] = m.shardsMerged.Value()
	out["intervals_evaluated"] = m.intervalsEvaluated.Value()
	out["decode_us"] = int64(m.decodeSeconds.Sum() * 1e6)
	out["build_us"] = int64(m.buildSeconds.Sum() * 1e6)
	out["merge_us"] = int64(m.mergeSeconds.Sum() * 1e6)
	out["detect_us"] = int64(m.detectSeconds.Sum() * 1e6)
	return out
}
