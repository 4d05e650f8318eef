package eventstore

import "zombiescope/internal/obs"

// Metrics are the store's instruments, registered (idempotently) on an
// obs.Registry. A nil-metrics store gets a private registry, so library
// use never pollutes the process-wide exposition.
type Metrics struct {
	segments *obs.Gauge
	bytes    *obs.Gauge
	firstSeq *obs.Gauge
	lastSeq  *obs.Gauge

	appends        *obs.Counter
	appendBytes    *obs.Counter
	seals          *obs.Counter
	repairs        *obs.Counter
	retentionDrops *obs.Counter
	truncatedBytes *obs.Counter
	scans          *obs.Counter
	scanBytes      *obs.Counter

	appendSeconds *obs.Histogram
	fsyncSeconds  *obs.Histogram
}

// NewMetrics registers the store instrument families on reg (nil: a
// private registry).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		segments: reg.Gauge("eventstore_segments",
			"Number of on-disk segments (sealed plus active)."),
		bytes: reg.Gauge("eventstore_bytes",
			"Total bytes across all segments."),
		firstSeq: reg.Gauge("eventstore_first_seq",
			"Oldest retained sequence number (0 when empty); with eventstore_last_seq, the store's durability watermarks."),
		lastSeq: reg.Gauge("eventstore_last_seq",
			"Newest stored sequence number (0 when empty)."),
		appends: reg.Counter("eventstore_appends_total",
			"Events appended to the store."),
		appendBytes: reg.Counter("eventstore_append_bytes_total",
			"Bytes written by appends (frames plus dictionary entries)."),
		seals: reg.Counter("eventstore_seals_total",
			"Segments sealed (data file fsynced and mapped for reads)."),
		repairs: reg.Counter("eventstore_repairs_total",
			"Open-time repairs (torn-tail truncations, quarantines, covered-segment removals)."),
		retentionDrops: reg.Counter("eventstore_retention_dropped_total",
			"Sealed segments dropped by the retention byte budget."),
		truncatedBytes: reg.Counter("eventstore_truncated_bytes_total",
			"Torn tail bytes truncated during recovery."),
		scans: reg.Counter("eventstore_scans_total",
			"Scan and Replay calls."),
		scanBytes: reg.Counter("eventstore_scan_bytes_total",
			"Event frame bytes visited by scans and replays."),
		appendSeconds: reg.Histogram("eventstore_append_seconds",
			"Append latency, including any fsync and seal work.", nil),
		fsyncSeconds: reg.Histogram("eventstore_fsync_seconds",
			"fsync latency of the active segment.", nil),
	}
}
