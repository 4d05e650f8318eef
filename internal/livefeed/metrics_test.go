package livefeed

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"zombiescope/internal/experiments"
	"zombiescope/internal/obs"
	"zombiescope/internal/obs/obstest"
)

// TestBrokerSnapshotPrometheusParity drives a broker through publishes,
// drops, and a detection, then checks the values in-process readers get
// from the registry (Values, keyed by exposition series name) and the
// buckets only the exposition carries.
func TestBrokerSnapshotPrometheusParity(t *testing.T) {
	b := NewBroker(Config{RingSize: 2, ReplaySize: -1})
	if _, _, err := b.Subscribe(Filter{}, PolicyDropOldest, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b.Publish(Event{Channel: ChannelUpdates})
	}
	b.Publish(Event{Channel: ChannelZombie})
	b.Metrics().detectLatency.Observe(0.042)

	counters, hists := b.Metrics().Registry().Values()
	for key, want := range map[string]int64{
		"livefeed_records_in_total":        6,
		"livefeed_events_out_total":        6,
		"livefeed_drops_drop_oldest_total": 4,
		"livefeed_block_stalls_total":      0,
		"livefeed_kicks_total":             0,
		"livefeed_subscribers_total":       1,
		"livefeed_alerts_total":            1,
	} {
		got, ok := counters[key]
		if !ok {
			t.Errorf("counter %s missing", key)
		} else if got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if got := b.Metrics().subscribers.Value(); got != 1 {
		t.Errorf("subscribers gauge = %v, want 1", got)
	}
	if s := hists["detector_latency_seconds"]; s.Count != 1 || s.Sum != 0.042 {
		t.Errorf("detector latency summary = %+v, want one 42ms observation", s)
	}
	if s := hists["livefeed_publish_seconds"]; s.Count != 6 {
		t.Errorf("publish count = %d, want 6", s.Count)
	}
	// The exposition carries the full distribution.
	var buf bytes.Buffer
	if err := b.Metrics().Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, ok := obstest.ParsePrometheus(t, buf.String())[`livefeed_publish_seconds_bucket{le="+Inf"}`]; !ok {
		t.Error("publish histogram has no +Inf bucket")
	}
}

// TestSharedRegistryScrape wires broker metrics onto a caller-owned
// registry (the zombied pattern) and checks one scrape carries both the
// caller's and the broker's series.
func TestSharedRegistryScrape(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("app_other_total", "other subsystem").Inc()
	b := NewBroker(Config{Metrics: NewMetrics(reg)})
	b.Publish(Event{Channel: ChannelUpdates})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.Contains(body, "livefeed_records_in_total 1") {
		t.Errorf("broker series missing from shared registry:\n%s", body)
	}
	if !strings.Contains(body, "app_other_total 1") {
		t.Errorf("caller series missing from shared registry:\n%s", body)
	}
}

// TestDetectorInstrumentWiring replays a scenario with known zombies and
// checks the stream-detector instruments the Pipeline maintains: every
// interval check fires, none stay pending, and at least one per-peer
// zombie-rate gauge lands in (0, 1].
func TestDetectorInstrumentWiring(t *testing.T) {
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(Config{RingSize: 1 << 16})
	pipe := NewPipeline(b, data.Intervals, 0)
	if err := pipe.Replay(context.Background(), stream, data.Config.TrackUntil, 0); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := b.Metrics().Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := obstest.ParsePrometheus(t, buf.String())
	if got := prom["detector_checks_fired_total"]; got != float64(len(data.Intervals)) {
		t.Errorf("checks fired = %v, want %d", got, len(data.Intervals))
	}
	if got := prom["detector_pending_checks"]; got != 0 {
		t.Errorf("pending checks = %v, want 0", got)
	}
	rates := 0
	for series, v := range prom {
		if !strings.HasPrefix(series, "detector_peer_zombie_rate{") {
			continue
		}
		rates++
		if v <= 0 || v > 1 {
			t.Errorf("%s = %v, want in (0, 1]", series, v)
		}
		if !strings.Contains(series, `afi="`) || !strings.Contains(series, `peer_as="`) {
			t.Errorf("%s missing expected labels", series)
		}
	}
	if rates == 0 {
		t.Error("no detector_peer_zombie_rate series; scenario produced zombies but the gauge never moved")
	}
}
