package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/livefeed"
	"zombiescope/internal/obs/obstest"
)

var update = flag.Bool("update", false, "rewrite golden files")

// startDaemon boots a daemon, runs it until ready, and returns it with
// its HTTP base URL plus a cancel that performs a graceful shutdown.
func startDaemon(t *testing.T, cfg config) (d *daemon, base string, stop func()) {
	t.Helper()
	d, err := newDaemon(cfg, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- d.run(ctx) }()
	base = "http://" + d.httpAddr().String()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, _ := getReadyz(t, base)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return d, base, func() {
		cancel()
		select {
		case err := <-runDone:
			if err != nil {
				t.Fatalf("run returned %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return after cancel")
		}
	}
}

// jsonPaths flattens a decoded JSON document into its sorted set of key
// paths: maps contribute "parent.key", arrays recurse into their first
// element as "parent[]". Values are discarded — the paths pin the shape
// of the /statusz contract, not one run's numbers.
func jsonPaths(v any, prefix string, out map[string]bool) {
	switch vv := v.(type) {
	case map[string]any:
		for k, child := range vv {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonPaths(child, p, out)
		}
	case []any:
		if len(vv) > 0 {
			jsonPaths(vv[0], prefix+"[]", out)
		}
	}
}

// TestDaemonStatusz pins the /statusz JSON contract: the key-path shape
// against a golden file (zombietop and the CI smoke test parse this
// document), plus the live values a ready daemon with one subscriber
// must report.
func TestDaemonStatusz(t *testing.T) {
	cfg := testConfig()
	cfg.storeDir = t.TempDir() // so the golden covers the store section
	d, base, stop := startDaemon(t, cfg)
	defer stop()

	// One connected subscriber so the sessions array is populated.
	conn, err := livefeed.DialWith(d.feedAddr().String(), livefeed.Filter{}, livefeed.PolicyDropOldest, 0,
		livefeed.DialOptions{FromStart: true, IdleTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Next(); err != nil { // at least one frame flushed
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q, want application/json", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decoding /statusz: %v\n%s", err, raw)
	}

	// Shape: sorted key paths against the golden. Every series the
	// daemon registers exists from startup, so the counter and stage keys
	// are as fixed as the rest of the document.
	paths := map[string]bool{}
	jsonPaths(doc, "", paths)
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"
	golden := filepath.Join("testdata", "statusz_keys.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("/statusz key paths diverge from golden (run with -update to accept):\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Values: the things a ready daemon with one draining subscriber
	// cannot legitimately report as zero.
	var st struct {
		Server      string           `json:"server"`
		GoVersion   string           `json:"go_version"`
		NumCPU      int              `json:"num_cpu"`
		Ready       bool             `json:"ready"`
		HeadSeq     uint64           `json:"head_seq"`
		Subscribers int              `json:"subscribers"`
		Counters    map[string]int64 `json:"counters"`
		Stages      map[string]struct {
			Count uint64 `json:"count"`
		} `json:"stages"`
		Sessions []struct {
			ID     uint64 `json:"id"`
			Policy string `json:"policy"`
		} `json:"sessions"`
		Store *struct {
			LastSeq  uint64 `json:"last_seq"`
			Segments int    `json:"segments"`
			Bytes    int64  `json:"bytes"`
		} `json:"store"`
		Runtime struct {
			Goroutines int64 `json:"goroutines"`
		} `json:"runtime"`
		UnixNanos int64 `json:"unix_nanos"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Server != "zombied/1" || !st.Ready || st.NumCPU < 1 || st.GoVersion == "" {
		t.Errorf("header fields wrong: %+v", st)
	}
	if st.HeadSeq == 0 || st.Counters["livefeed_records_in_total"] == 0 {
		t.Errorf("ready daemon reports head_seq=%d livefeed_records_in_total=%d", st.HeadSeq, st.Counters["livefeed_records_in_total"])
	}
	if st.Counters["pipeline_files_decoded_total"] == 0 {
		t.Errorf("pipeline counters missing from /statusz: %v", st.Counters)
	}
	if st.Subscribers != 1 || len(st.Sessions) != 1 || st.Sessions[0].Policy != "drop-oldest" {
		t.Errorf("sessions wrong: subscribers=%d sessions=%+v", st.Subscribers, st.Sessions)
	}
	if st.Stages["livefeed_publish_seconds"].Count == 0 || st.Stages[`livefeed_stage_seconds{stage="detect"}`].Count == 0 ||
		st.Stages[`pipeline_stage_seconds{stage="decode"}`].Count == 0 {
		t.Errorf("stage summaries empty: %+v", st.Stages)
	}
	if st.Store == nil || st.Store.LastSeq != st.HeadSeq || st.Store.Segments == 0 || st.Store.Bytes == 0 {
		t.Errorf("store section wrong: %+v (head %d)", st.Store, st.HeadSeq)
	}
	if st.Runtime.Goroutines < 1 || st.UnixNanos == 0 {
		t.Errorf("runtime/stamp missing: goroutines=%d unix_nanos=%d", st.Runtime.Goroutines, st.UnixNanos)
	}

	// The HTML view serves from the same builder.
	resp2, err := http.Get(base + "/statusz?format=html")
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(resp2.Header.Get("Content-Type"), "text/html") ||
		!strings.Contains(string(html), "zombied/1") {
		t.Errorf("html view wrong: ct=%q body starts %.60q", resp2.Header.Get("Content-Type"), html)
	}
}

// TestDaemonMetricsScrape checks that the unified /metrics scrape of a
// ready daemon carries the latency-provenance series: stage and e2e
// histograms, the per-subscriber session gauges, the journal watermarks,
// and the runtime bridge — all on one page.
func TestDaemonMetricsScrape(t *testing.T) {
	d, base, stop := startDaemon(t, testConfig())
	defer stop()

	conn, err := livefeed.DialWith(d.feedAddr().String(), livefeed.Filter{}, livefeed.PolicyDropOldest, 0,
		livefeed.DialOptions{FromStart: true, IdleTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Next(); err != nil {
		t.Fatal(err)
	}

	// Catch-up frames are excluded from the e2e histogram (their ingest
	// stamps are historical), so publish one live event after the
	// subscriber attached and drain to it — the only kind of delivery
	// that legitimately observes e2e.
	liveSeq := d.broker.Publish(livefeed.Event{Channel: "test", Type: "notice", Timestamp: time.Now()})
	for {
		ev, err := conn.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq >= liveSeq {
			break
		}
	}

	// The server observes e2e just after the flush that carried the live
	// event, concurrently with the client reading it — poll the scrape
	// briefly instead of racing that observation.
	var samples map[string]float64
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		samples = obstest.ParsePrometheus(t, string(body))
		if samples["livefeed_e2e_seconds_count"] > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	if samples[`livefeed_stage_seconds_count{stage="detect"}`] == 0 {
		t.Error("detect stage histogram not populated")
	}
	if samples[`livefeed_stage_seconds_count{stage="flush"}`] == 0 {
		t.Error("flush stage histogram not populated")
	}
	if samples["livefeed_e2e_seconds_count"] == 0 {
		t.Error("e2e latency histogram not populated")
	}
	if samples["livefeed_bytes_written_total"] == 0 {
		t.Error("bytes written counter not populated")
	}
	foundLag := false
	for name := range samples {
		if strings.HasPrefix(name, "livefeed_subscriber_lag{") {
			foundLag = true
		}
	}
	if !foundLag {
		t.Error("no per-subscriber lag gauge on the scrape")
	}
	if samples["livefeed_journal_head_seq"] == 0 {
		t.Error("journal head gauge not populated")
	}
	if samples["livefeed_watermark_unix_seconds"] == 0 {
		t.Error("watermark gauge not populated")
	}
	if samples["go_goroutines"] == 0 {
		t.Error("runtime bridge not on the unified scrape")
	}
}

// TestDaemonInternCounters checks that the pipeline's intern counters are
// live on the daemon's scrape: the stream detector interns every record's
// AS path, so after the replay the hit counter cannot read zero, and the
// retired pool and per-run hit-ratio families are gone.
func TestDaemonInternCounters(t *testing.T) {
	_, base, stop := startDaemon(t, testConfig())
	defer stop()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := obstest.ParsePrometheus(t, string(body))
	if samples["pipeline_intern_hits_total"] == 0 {
		t.Error("pipeline_intern_hits_total reads 0 after the replay")
	}
	for name := range samples {
		if strings.HasPrefix(name, "pipeline_pool_") || strings.HasPrefix(name, "pipeline_intern_hit_ratio") {
			t.Errorf("retired series %s on the scrape", name)
		}
	}
}

// TestDaemonTrace runs a oneshot daemon with -trace -trace-sample 1 and
// checks the exported Chrome trace holds the per-event span trees.
func TestDaemonTrace(t *testing.T) {
	cfg := testConfig()
	cfg.httpAddr = ""
	cfg.oneshot = true
	cfg.traceFile = filepath.Join(t.TempDir(), "trace.json")
	cfg.traceSample = 1
	d, err := newDaemon(cfg, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.traceFile)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a Chrome trace JSON array: %v", err)
	}
	names := map[string]int{}
	for _, ev := range events {
		if n, ok := ev["name"].(string); ok {
			names[n]++
		}
	}
	for _, want := range []string{"livefeed.event", "encode", "fanout", "livefeed.replay"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q spans (got %v)", want, names)
		}
	}
}
