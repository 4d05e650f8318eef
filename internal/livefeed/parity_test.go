package livefeed

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"zombiescope/internal/experiments"
	"zombiescope/internal/mrt"
	"zombiescope/internal/zombie"
)

// routeKey identifies one detected zombie route for set comparison.
type routeKey struct {
	peer      zombie.PeerID
	prefix    string
	interval  int64
	duplicate bool
}

// TestFeedStreamingMatchesBatchDetector is the detector invariant the
// paper's methodology depends on, end to end through the network layer:
// replaying an archive through the livefeed (broker -> TCP -> client ->
// StreamDetector) yields exactly the same zombie routes and outbreaks as
// the batch Detector over the same archive — and the same set again on
// the server-side alert channel.
func TestFeedStreamingMatchesBatchDetector(t *testing.T) {
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		t.Fatal(err)
	}

	// Batch reference.
	batch, err := (&zombie.Detector{}).Detect(data.Updates, data.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	batchRoutes := make(map[routeKey]bool)
	batchOutbreaks := make(map[string]bool)
	for _, ob := range batch.Outbreaks {
		batchOutbreaks[ob.Prefix.String()+"@"+ob.Interval.AnnounceAt.UTC().String()] = true
		for _, r := range ob.Routes {
			batchRoutes[routeKey{r.Peer, r.Prefix.String(), r.Interval.AnnounceAt.Unix(), r.Duplicate}] = true
		}
	}
	if len(batchRoutes) == 0 {
		t.Fatal("batch detector found no zombies; scenario too small for a parity test")
	}

	// Server side: broker + pipeline (server-side detection) + TCP server.
	broker := NewBroker(Config{RingSize: 1 << 16})
	pipe := NewPipeline(broker, data.Intervals, 0)
	srv := &Server{Broker: broker, Name: "parity-test/1"}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(l)

	// Client side: one connection, all channels, feeding a second
	// StreamDetector from the events' raw MRT records.
	conn, err := DialWith(l.Addr().String(), Filter{}, PolicyDropOldest, 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for _, sr := range stream {
		pipe.Ingest(sr)
	}
	pipe.Flush(data.Config.TrackUntil)
	head := broker.Seq()

	clientRoutes := make(map[routeKey]bool)
	clientOutbreaks := make(map[string]bool)
	sd := zombie.NewStreamDetector(data.Intervals, 0, func(ev zombie.ZombieEvent) {
		clientRoutes[routeKey{ev.Peer, ev.Prefix.String(), ev.Interval.AnnounceAt.Unix(), ev.Duplicate}] = true
		clientOutbreaks[ev.Prefix.String()+"@"+ev.Interval.AnnounceAt.UTC().String()] = true
	})
	serverAlerts := make(map[routeKey]bool)
	for {
		ev, err := conn.Next()
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		switch ev.Channel {
		case ChannelUpdates:
			rec, err := decodeRecord(&mrt.Decoder{}, ev.Seq, ev.Raw)
			if err != nil {
				t.Fatal(err)
			}
			sd.Advance(rec.RecordTime())
			sd.Observe(ev.Collector, rec)
		case ChannelZombie:
			peer := zombie.PeerID{Collector: ev.Collector, AS: ev.PeerAS, Addr: ev.Peer}
			serverAlerts[routeKey{peer, ev.Alert.Prefix.String(), ev.Alert.IntervalStart.Unix(), ev.Alert.Duplicate}] = true
		}
		if ev.Seq == head {
			break
		}
	}
	sd.Advance(data.Config.TrackUntil)
	if n := sd.PendingChecks(); n != 0 {
		t.Fatalf("client-side detector left %d checks pending", n)
	}

	if err := equalSets(batchRoutes, clientRoutes); err != nil {
		t.Errorf("client-side streaming vs batch routes: %v", err)
	}
	if err := equalSets(batchRoutes, serverAlerts); err != nil {
		t.Errorf("server-side alerts vs batch routes: %v", err)
	}
	if len(clientOutbreaks) != len(batchOutbreaks) {
		t.Errorf("outbreak sets differ: stream %d, batch %d", len(clientOutbreaks), len(batchOutbreaks))
	}
	for ob := range batchOutbreaks {
		if !clientOutbreaks[ob] {
			t.Errorf("batch-only outbreak %s", ob)
		}
	}
}

func equalSets(want, got map[routeKey]bool) error {
	for k := range want {
		if !got[k] {
			return fmt.Errorf("missing route %+v (want %d routes, got %d)", k, len(want), len(got))
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Errorf("unexpected route %+v (want %d routes, got %d)", k, len(want), len(got))
		}
	}
	return nil
}

// TestReplayPacing checks that a paced replay spaces records in wall time
// and can be cancelled.
func TestReplayPacing(t *testing.T) {
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 64))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) == 0 {
		t.Fatal("empty stream")
	}
	// Full-speed replay of the whole archive should be quick and flush
	// all checks.
	broker := NewBroker(Config{})
	pipe := NewPipeline(broker, data.Intervals, 0)
	start := time.Now()
	if err := pipe.Replay(context.Background(), stream, data.Config.TrackUntil, 0); err != nil {
		t.Fatal(err)
	}
	if pipe.PendingChecks() != 0 {
		t.Fatalf("%d checks pending after replay", pipe.PendingChecks())
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("full-speed replay took %v", elapsed)
	}
	if broker.Seq() == 0 {
		t.Fatal("nothing published")
	}
}
