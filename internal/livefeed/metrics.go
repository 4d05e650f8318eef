package livefeed

import "zombiescope/internal/obs"

// publishBuckets cover the broker's in-process fan-out, which is orders of
// magnitude faster than the stage latencies DefBuckets are cut for.
var publishBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3, 1e-2, 0.1,
}

// stageBuckets span the full latency provenance range: microsecond
// in-process stages through second-scale end-to-end paths (a stalled
// subscriber, a journal-served catch-up), so one bucket layout serves
// every stage and the e2e histogram.
var stageBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 1e-2, 0.1, 1, 10,
}

// Metrics holds the broker's instruments on an obs registry, which is
// their only read: /metrics renders it and in-process readers take
// Registry().Values(). Build one with NewMetrics; pass a shared registry
// through Config.Metrics to scrape several subsystems as one target.
type Metrics struct {
	reg *obs.Registry

	// Ingestion / fan-out.
	recordsIn      *obs.Counter
	eventsOut      *obs.Counter
	publishSeconds *obs.Histogram
	journalErrors  *obs.Counter

	// Encode-once broadcast path: frames built per format.
	encodeJSON   *obs.Counter
	encodeMRT    *obs.Counter
	encodeErrors *obs.Counter
	framesShared *obs.Counter

	// Backpressure, per policy.
	dropsDropOldest *obs.Counter
	blockStalls     *obs.Counter
	kicks           *obs.Counter

	// Subscribers.
	subscribers      *obs.Gauge
	subscribersTotal *obs.Counter

	// Latency provenance: per-stage clocks plus the end-to-end distance
	// from the ingest stamp to the socket flush. stageDetect/stageFlush
	// are the pre-resolved children of the stage vec, so hot paths pay a
	// histogram observe, never a label lookup.
	stageSeconds *obs.HistogramVec
	stageDetect  *obs.Histogram
	stageFlush   *obs.Histogram
	e2eSeconds   *obs.Histogram
	bytesWritten *obs.Counter

	// Per-subscriber session gauges, labeled by session id; children are
	// created at subscribe, refreshed by the broker's scrape hook, and
	// deleted when the subscriber detaches.
	subLag   *obs.GaugeVec
	subQueue *obs.GaugeVec

	// Durability watermarks (what the journal/store still holds vs the
	// stream head) and the record-time watermark the detector clock runs
	// on.
	journalHead  *obs.Gauge
	journalFirst *obs.Gauge
	watermark    *obs.Gauge

	// Detection (the server-side StreamDetector wired by Pipeline).
	alerts        *obs.Counter
	detectLatency *obs.Histogram
	checksFired   *obs.Counter
	pendingChecks *obs.Gauge
	peerRate      *obs.GaugeVec
}

// NewMetrics registers the broker instrument families on reg (nil: a
// fresh private registry).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Metrics{reg: reg}
	m.recordsIn = reg.Counter("livefeed_records_in_total", "Events published into the broker.")
	m.eventsOut = reg.Counter("livefeed_events_out_total", "Events queued to subscribers (post-filter).")
	m.publishSeconds = reg.Histogram("livefeed_publish_seconds",
		"Broker fan-out latency per published event.", publishBuckets)
	m.journalErrors = reg.Counter("livefeed_journal_errors_total",
		"Journal appends or resume reads that failed.")
	encodes := reg.CounterVec("livefeed_encode_total",
		"Event wire frames built, per frame format: at most once per published event and format, when a subscriber takes the event in it (JSON always for an event without a record), plus journal-served resume catch-up.",
		"format")
	m.encodeJSON = encodes.With(FormatJSON)
	m.encodeMRT = encodes.With(FormatMRT)
	m.encodeErrors = reg.Counter("livefeed_encode_errors_total",
		"Events that failed to encode and were skipped.")
	m.framesShared = reg.Counter("livefeed_frames_shared_total",
		"Frame references handed to subscriber rings; deliveries reusing a shared encoding.")
	m.dropsDropOldest = reg.Counter("livefeed_drops_drop_oldest_total", "Events evicted under drop-oldest.")
	m.blockStalls = reg.Counter("livefeed_block_stalls_total", "Publishes that had to wait under block.")
	m.kicks = reg.Counter("livefeed_kicks_total", "Subscribers kicked under kick-slowest.")
	m.subscribers = reg.Gauge("livefeed_subscribers", "Currently attached subscribers.")
	m.subscribersTotal = reg.Counter("livefeed_subscribers_total", "Subscribers ever attached.")
	m.stageSeconds = reg.HistogramVec("livefeed_stage_seconds",
		"Per-stage latency of the event path (detect: detector work per ingested record; flush: one socket writev batch).",
		stageBuckets, "stage")
	m.stageDetect = m.stageSeconds.With("detect")
	m.stageFlush = m.stageSeconds.With("flush")
	m.e2eSeconds = reg.Histogram("livefeed_e2e_seconds",
		"End-to-end event latency: ingest stamp to socket flush, per delivered frame.", stageBuckets)
	m.bytesWritten = reg.Counter("livefeed_bytes_written_total",
		"Wire bytes flushed to subscriber connections.")
	m.subLag = reg.GaugeVec("livefeed_subscriber_lag",
		"Sequence distance between the broker head and the subscriber's last consumed event.", "id")
	m.subQueue = reg.GaugeVec("livefeed_subscriber_queue",
		"Frames queued in the subscriber's ring.", "id")
	m.journalHead = reg.Gauge("livefeed_journal_head_seq",
		"Highest sequence number published (journal head when journaled).")
	m.journalFirst = reg.Gauge("livefeed_journal_first_seq",
		"Oldest sequence number the journal still holds (0 when empty or not journaled).")
	m.watermark = reg.Gauge("livefeed_watermark_unix_seconds",
		"Record-time watermark the detector clock has advanced to.")
	m.alerts = reg.Counter("livefeed_alerts_total", "Zombie-channel events published.")
	m.detectLatency = reg.Histogram("detector_latency_seconds",
		"How far behind the record stream detections fire.", obs.DefBuckets)
	m.checksFired = reg.Counter("detector_checks_fired_total", "Beacon interval checks fired.")
	m.pendingChecks = reg.Gauge("detector_pending_checks", "Interval checks not fired yet.")
	m.peerRate = reg.GaugeVec("detector_peer_zombie_rate",
		"Per-peer zombie likelihood: deduped zombie routes over beacon announcements of the family (the paper's noisy-peer table, live).",
		"collector", "peer_as", "afi")
	return m
}

// Registry returns the registry backing the metrics, for exposition
// alongside other subsystems and for Values.
func (m *Metrics) Registry() *obs.Registry { return m.reg }
