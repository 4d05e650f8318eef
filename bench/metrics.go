package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

// metric is one named, unit-carrying number of the benchmark's output.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics carry none.
	Bound float64 `json:"bound,omitempty"`
}

// The end-to-end metrics every workload reports. The two timings are per
// item — one MRT record, or one simulator event on sim-beacon — so that
// what is left of the seed-to-seed difference in input size cancels, and
// they and setup_s are scaled to the reference machine speed (probe.go).
// README.md has each workload's reading.
var endToEnd = []metric{
	{Name: "item_p50_us", Unit: "us", Better: "lower"},
	{Name: "items_per_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer lists every per-layer metric, prefix = module. A workload that
// never calls a layer reports 0 for it: no time was spent there.
var perLayer = []metric{
	{Name: "archive.open_ms", Unit: "ms", Better: "lower"},
	{Name: "archive.load_ms", Unit: "ms", Better: "lower"},
	{Name: "archive.write_ms", Unit: "ms", Better: "lower"},
	{Name: "archive.bytes", Unit: "B", Better: "lower"},
	{Name: "pipeline.fold_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.records", Unit: "count", Better: "higher"},
	{Name: "bgp.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "bgp.updates", Unit: "count", Better: "higher"},
	{Name: "bgp.community_only_frac", Unit: "ratio", Better: "lower"},
	{Name: "zombie.history_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.history_all_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.history_seq_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.history_par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "zombie.history_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "zombie.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.summarize_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.outbreaks", Unit: "count", Better: "higher"},
	{Name: "zombie.anomaly_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.anomaly_zombie_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.anomaly_moas_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.anomaly_hyper_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.anomaly_storm_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.anomaly_findings", Unit: "count", Better: "higher"},
	{Name: "zombie.lifespan_ms", Unit: "ms", Better: "lower"},
	{Name: "zombie.lifespan_dump_mb", Unit: "MB", Better: "lower"},
	{Name: "zombie.stream_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "zombie.stream_alerts", Unit: "count", Better: "higher"},
	{Name: "zombie.history_store_ms", Unit: "ms", Better: "lower"},
	{Name: "livefeed.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "livefeed.ingest_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "livefeed.ingest_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "livefeed.publish_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "livefeed.publish_journal_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "livefeed.drain_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "livefeed.wire_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "livefeed.client_decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "livefeed.drops", Unit: "count", Better: "lower"},
	{Name: "livefeed.lost", Unit: "count", Better: "lower"},
	{Name: "livefeed.e2e_p99_us", Unit: "us", Better: "lower"},
	{Name: "livefeed.alert_p50_us", Unit: "us", Better: "lower"},
	{Name: "livefeed.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "livefeed.backfill_ms", Unit: "ms", Better: "lower"},
	{Name: "livefeed.backfill_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "eventstore.append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "eventstore.open_ms", Unit: "ms", Better: "lower"},
	{Name: "eventstore.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "eventstore.scan_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "eventstore.bytes", Unit: "B", Better: "lower"},
	{Name: "eventstore.segments", Unit: "count", Better: "lower"},
	{Name: "topology.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.seq_run_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "netsim.events", Unit: "count", Better: "higher"},
	{Name: "netsim.messages", Unit: "count", Better: "higher"},
	{Name: "netsim.collector_records", Unit: "count", Better: "higher"},
	{Name: "collector.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.updates_mb", Unit: "MB", Better: "lower"},
	{Name: "experiments.author_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.passes", Unit: "count", Better: "higher"},
	{Name: "bench.op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.op_tail_q", Unit: "ratio", Better: "higher"},
	{Name: "bench.alloc_mb_per_pass", Unit: "MB", Better: "lower"},
	{Name: "bench.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.layer_cover_pct", Unit: "%", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.workers", Unit: "count", Better: "higher"},
	{Name: "bench.probe_ms", Unit: "ms", Better: "lower"},
}

// workloadDoc is one BENCHMARK.json workload entry.
type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkDoc mirrors BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metric      `json:"end_to_end"`
	PerLayer   []metric      `json:"per_layer"`
}

func loadBenchmarkDoc(path string) (*benchmarkDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateNames checks a metric or workload name list against the
// contract: allowed characters, no duplicates.
func validateNames(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	return nil
}

// sameMetrics reports the first difference between the metrics the code
// emits and the ones a BENCHMARK.json section declares (bounds aside).
func sameMetrics(section string, code, doc []metric) error {
	if len(code) != len(doc) {
		return fmt.Errorf("%s: code emits %d metrics, BENCHMARK.json lists %d", section, len(code), len(doc))
	}
	for i := range code {
		c, d := code[i], doc[i]
		if c.Name != d.Name || c.Unit != d.Unit || c.Better != d.Better {
			return fmt.Errorf("%s[%d]: code has %s (%s, %s), BENCHMARK.json has %s (%s, %s)",
				section, i, c.Name, c.Unit, c.Better, d.Name, d.Unit, d.Better)
		}
		if !unitRE.MatchString(c.Unit) {
			return fmt.Errorf("%s: unit %q of %s is not a contract unit", section, c.Unit, c.Name)
		}
	}
	return nil
}

func metricNames(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// --- statistics ---

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentiles are the candidates of highestPercentile, highest first:
// beyond the q-quantile lies one sample in every `every`.
var tailPercentiles = []struct {
	q     float64
	every int
}{{0.999, 1000}, {0.99, 100}, {0.95, 20}, {0.90, 10}}

// highestPercentile picks the highest of p99.9/p99/p95/p90 that still has
// at least ten samples beyond it, so the reported tail is a measurement
// and not one outlier. ok is false when even p90 has fewer (n < 100).
func highestPercentile(n int) (q float64, ok bool) {
	for _, p := range tailPercentiles {
		if n >= 10*p.every {
			return p.q, true
		}
	}
	return 0, false
}

// quartileSpread is the contract's steadiness measure: the distance
// between the first and third quartile as a share of the median, with the
// quartiles as Python's statistics.quantiles(values, n=4) gives them
// (exclusive method).
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th of the 4-quantile cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}
