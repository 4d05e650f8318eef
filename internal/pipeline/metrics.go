package pipeline

import (
	"sync"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/obs"
)

// Metrics holds the pipeline's per-stage instruments on an obs registry:
// counters for throughput, a stage-labeled latency histogram for the
// distributions. The registry is the only read: /metrics renders it, and
// in-process readers take Registry().Values().
//
// Build one with NewMetrics. The zero value is an inert sink: its nil
// instrument handles drop every update, which is what callers that want
// no accounting (benchmarks, tests) pass as Engine.Metrics. All methods
// are safe for concurrent use.
type Metrics struct {
	reg *obs.Registry

	// Throughput, by stage: decode, then shard / merge / detection.
	filesDecoded       *obs.Counter
	chunksDecoded      *obs.Counter
	recordsDecoded     *obs.Counter
	bytesDecoded       *obs.Counter
	decodeErrors       *obs.Counter
	eventsSharded      *obs.Counter
	shardsMerged       *obs.Counter
	intervalsEvaluated *obs.Counter

	// Per-stage wall-time distributions, one histogram child per stage.
	decodeSeconds *obs.Histogram
	buildSeconds  *obs.Histogram
	mergeSeconds  *obs.Histogram
	detectSeconds *obs.Histogram

	// Intern-table counters, mirrored from the bgp package totals by
	// syncIntern at every scrape; internMu guards the last-seen totals so
	// deltas are exact even with concurrent scrapes.
	internHits   *obs.Counter
	internMisses *obs.Counter
	internMu     sync.Mutex
	lastHits     uint64
	lastMisses   uint64
}

// Default is the process-wide metrics sink of engines that carry none.
var Default = NewMetrics(nil)

// NewMetrics registers the pipeline instrument families on reg (nil: a
// fresh private registry). Distinct instances need distinct registries:
// the families would be shared, and each instance's intern hook would
// count the same growth again.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	stages := reg.HistogramVec("pipeline_stage_seconds",
		"Wall time of pipeline stages; the build stage is observed by lifespan tracking only.", obs.DefBuckets, "stage")
	m := &Metrics{
		reg:                reg,
		filesDecoded:       reg.Counter("pipeline_files_decoded_total", "Archive files fully decoded."),
		chunksDecoded:      reg.Counter("pipeline_chunks_decoded_total", "Record-aligned chunks decoded."),
		recordsDecoded:     reg.Counter("pipeline_records_decoded_total", "MRT records decoded."),
		bytesDecoded:       reg.Counter("pipeline_bytes_decoded_total", "Archive bytes consumed."),
		decodeErrors:       reg.Counter("pipeline_decode_errors_total", "Malformed records encountered: records that failed to decode or that a fold rejected, such as a tracked RIB record indexing no peer of its dump's table."),
		eventsSharded:      reg.Counter("pipeline_events_sharded_total", "RIB entries appended to lifespan observation series (the history build does not feed it)."),
		shardsMerged:       reg.Counter("pipeline_shards_merged_total", "History chunk builders sealed plus lifespan prefixes folded."),
		intervalsEvaluated: reg.Counter("pipeline_intervals_evaluated_total", "Beacon intervals evaluated."),
		decodeSeconds:      stages.With("decode"),
		buildSeconds:       stages.With("build"),
		mergeSeconds:       stages.With("merge"),
		detectSeconds:      stages.With("detect"),
		internHits:         reg.Counter("pipeline_intern_hits_total", "Intern table lookups served from the table."),
		internMisses:       reg.Counter("pipeline_intern_misses_total", "Intern table lookups that built a new entry."),
	}
	reg.OnScrape(m.syncIntern)
	return m
}

// Registry returns the registry backing the metrics (nil for the zero
// value), for exposition alongside other subsystems and for Values.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// AddDecoded accounts one decoded chunk's records and bytes.
func (m *Metrics) AddDecoded(records, bytes int) {
	m.chunksDecoded.Inc()
	m.recordsDecoded.Add(int64(records))
	m.bytesDecoded.Add(int64(bytes))
}

// AddFiles accounts fully decoded archive files.
func (m *Metrics) AddFiles(n int) { m.filesDecoded.Add(int64(n)) }

// AddDecodeError accounts a malformed record, one that failed to decode
// or that a fold rejected.
func (m *Metrics) AddDecodeError() { m.decodeErrors.Inc() }

// AddSharded accounts RIB entries appended to lifespan observation series.
func (m *Metrics) AddSharded(n int) { m.eventsSharded.Add(int64(n)) }

// AddMerged accounts history chunk builders sealed and lifespan prefixes folded.
func (m *Metrics) AddMerged(n int) { m.shardsMerged.Add(int64(n)) }

// AddIntervals accounts evaluated beacon intervals.
func (m *Metrics) AddIntervals(n int) { m.intervalsEvaluated.Add(int64(n)) }

// ObserveDecode records decode stage wall time.
func (m *Metrics) ObserveDecode(d time.Duration) { m.decodeSeconds.Observe(clampSeconds(d)) }

// ObserveBuild records lifespan tracking's shard-build wall time.
func (m *Metrics) ObserveBuild(d time.Duration) { m.buildSeconds.Observe(clampSeconds(d)) }

// ObserveMerge records merge stage wall time.
func (m *Metrics) ObserveMerge(d time.Duration) { m.mergeSeconds.Observe(clampSeconds(d)) }

// ObserveDetect records detection stage wall time.
func (m *Metrics) ObserveDetect(d time.Duration) { m.detectSeconds.Observe(clampSeconds(d)) }

// syncIntern advances the intern counters by the bgp intern tables' growth
// since the last sync. As the registry's scrape hook it makes the counters
// current wherever they are read, whichever path did the interning.
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
