package collector

import (
	"time"

	"zombiescope/internal/obs"
)

// The fleet's instruments live on a package-level registry: collectors are
// constructed in many places (simulations, tests, zombied's feed builder)
// and a scrape wants them all as one target. Per-collector children are
// cached on the Collector at construction, so the hot write path never
// takes the registry's family lock.
var (
	registry = obs.NewRegistry()

	recordsVec = registry.CounterVec("collector_records_total",
		"MRT records archived, per collector (updates and RIB dumps).",
		"collector")
	snapshotsVec = registry.CounterVec("collector_snapshots_total",
		"RIB snapshots taken, per collector.",
		"collector")
	snapshotSeconds = registry.Histogram("collector_snapshot_seconds",
		"Wall time of one RIB snapshot across all peers.", obs.DefBuckets)
)

// Registry exposes the fleet's instruments for Prometheus exposition
// alongside other subsystems (zombied unions it into /metrics).
func Registry() *obs.Registry { return registry }

// noteRecord accounts one archived MRT record.
func (c *Collector) noteRecord() {
	c.obsRecords.Inc()
}

// noteSnapshot accounts one completed RIB snapshot.
func (c *Collector) noteSnapshot(start time.Time) {
	c.obsSnapshots.Inc()
	snapshotSeconds.Observe(time.Since(start).Seconds())
}
