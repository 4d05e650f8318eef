package pipeline

import (
	"bytes"
	"testing"
	"time"

	"zombiescope/internal/obs/obstest"
)

// TestSnapshotPrometheusParity asserts the legacy JSON snapshot and the
// Prometheus exposition are two views of the same state.
func TestSnapshotPrometheusParity(t *testing.T) {
	m := NewMetrics(nil)
	m.AddFiles(3)
	m.AddDecoded(250, 4096)
	m.AddDecoded(50, 512)
	m.AddDecodeError()
	m.AddSharded(300)
	m.AddMerged(8)
	m.AddIntervals(12)
	m.ObserveDecode(3 * time.Millisecond)
	m.ObserveBuild(1 * time.Millisecond)
	m.ObserveMerge(500 * time.Microsecond)
	m.ObserveDetect(2 * time.Millisecond)

	snap := m.Snapshot()
	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := obstest.ParsePrometheus(t, buf.String())

	counterFor := map[string]string{
		"files_decoded":       "pipeline_files_decoded_total",
		"chunks_decoded":      "pipeline_chunks_decoded_total",
		"records_decoded":     "pipeline_records_decoded_total",
		"bytes_decoded":       "pipeline_bytes_decoded_total",
		"decode_errors":       "pipeline_decode_errors_total",
		"events_sharded":      "pipeline_events_sharded_total",
		"shards_merged":       "pipeline_shards_merged_total",
		"intervals_evaluated": "pipeline_intervals_evaluated_total",
	}
	for jsonKey, promKey := range counterFor {
		pv, ok := prom[promKey]
		if !ok {
			t.Errorf("prometheus series %s missing", promKey)
			continue
		}
		if int64(pv) != snap[jsonKey] {
			t.Errorf("%s: prometheus %v != snapshot %d", jsonKey, pv, snap[jsonKey])
		}
	}
	// The *_us snapshot entries are the stage histogram sums.
	histFor := map[string]string{
		"decode_us": `pipeline_stage_seconds_sum{stage="decode"}`,
		"build_us":  `pipeline_stage_seconds_sum{stage="build"}`,
		"merge_us":  `pipeline_stage_seconds_sum{stage="merge"}`,
		"detect_us": `pipeline_stage_seconds_sum{stage="detect"}`,
	}
	for jsonKey, promKey := range histFor {
		pv, ok := prom[promKey]
		if !ok {
			t.Errorf("prometheus series %s missing", promKey)
			continue
		}
		if got := int64(pv * 1e6); got != snap[jsonKey] {
			t.Errorf("%s: prometheus sum %v (= %d us) != snapshot %d us", jsonKey, pv, got, snap[jsonKey])
		}
	}
	// Every stage histogram must expose buckets and a count.
	for _, stage := range []string{"decode", "build", "merge", "detect"} {
		if prom[`pipeline_stage_seconds_count{stage="`+stage+`"}`] != 1 {
			t.Errorf("stage %s histogram count != 1", stage)
		}
		if _, ok := prom[`pipeline_stage_seconds_bucket{stage="`+stage+`",le="+Inf"}`]; !ok {
			t.Errorf("stage %s histogram has no +Inf bucket", stage)
		}
	}
}

// TestNilMetricsSnapshot pins the nil-receiver contract: Add* and
// Observe* were always nil-safe; Snapshot and Registry are too.
func TestNilMetricsSnapshot(t *testing.T) {
	var m *Metrics
	m.AddFiles(1)
	m.ObserveDecode(time.Second)
	snap := m.Snapshot()
	if len(snap) == 0 {
		t.Fatal("nil snapshot has no keys")
	}
	for k, v := range snap {
		if v != 0 {
			t.Errorf("nil snapshot %s = %d, want 0", k, v)
		}
	}
	if m.Registry() != nil {
		t.Error("nil Registry() != nil")
	}
}
