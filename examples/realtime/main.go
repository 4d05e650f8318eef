// Realtime: the paper's §6 future-work item as a network service. A
// livefeed broker + TCP server replays a simulated collector archive with
// a server-side streaming detector (exactly what the zombied daemon
// runs), and a livefeed.Client subscribes to the "zombie" alert channel
// over the wire — reconnect and resume-from-sequence included — printing
// each stuck route the moment it passes the 90-minute threshold.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/experiments"
	"zombiescope/internal/livefeed"
)

func main() {
	// Generate the collector feed (in production this would be a live
	// RIS stream; zombied serves it from real archives the same way).
	cfg := experiments.DefaultAuthorConfig(42, 8)
	data, err := experiments.RunAuthorScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stream, err := livefeed.MergeUpdates(data.Updates)
	if err != nil {
		log.Fatal(err)
	}

	// Server side: broker + frame-protocol server + streaming detector.
	broker := livefeed.NewBroker(livefeed.Config{})
	pipe := livefeed.NewPipeline(broker, data.Intervals, 90*time.Minute)
	srv := &livefeed.Server{Broker: broker, Name: "realtime-example/1"}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)

	// Client side: subscribe to zombie alerts only, reconnecting client.
	ctx, cancel := context.WithCancel(context.Background())
	alerts, received := 0, make(chan struct{}, 1024)
	client := &livefeed.Client{
		Addr:   l.Addr().String(),
		Filter: livefeed.Filter{Channels: []string{livefeed.ChannelZombie}},
		Policy: livefeed.PolicyDropOldest,
		OnEvent: func(ev livefeed.Event) {
			defer func() { received <- struct{}{} }()
			if ev.Alert == nil || ev.Alert.Duplicate {
				return // already alerted in an earlier interval
			}
			alerts++
			tag := "ZOMBIE"
			if ev.Type == livefeed.TypeResurrection {
				tag = "RESURRECTION"
			}
			if alerts <= 25 {
				fmt.Printf("[%s] %-12s %s stuck at %s (%s), path %s\n",
					ev.Timestamp.Format("2006-01-02 15:04"), tag,
					ev.Alert.Prefix, ev.PeerAS, ev.Collector,
					bgp.NewASPath(ev.Alert.Path...))
			}
		},
	}
	clientDone := make(chan error, 1)
	go func() { clientDone <- client.Run(ctx) }()

	// Wait for the subscription before replaying: a fresh subscriber
	// tails the feed from "now" and would miss alerts published earlier.
	for broker.SubscriberCount() == 0 {
		time.Sleep(time.Millisecond)
	}

	fmt.Printf("replaying %d collector records through the live feed...\n\n", len(stream))
	if err := pipe.Replay(ctx, stream, cfg.TrackUntil, 0); err != nil {
		log.Fatal(err)
	}

	// Drain: the alert count is known once the replay flushed; stop the
	// client when it has received them all.
	m, _ := broker.Metrics().Registry().Values()
	want := m["livefeed_alerts_total"]
	for got := int64(0); got < want; {
		select {
		case <-received:
			got++
		case <-time.After(10 * time.Second):
			log.Fatalf("stalled at %d of %d alerts (seq %d)", got, want, client.LastSeq())
		}
	}
	cancel()
	<-clientDone
	srv.Close()
	broker.Close()

	m, _ = broker.Metrics().Registry().Values()
	fmt.Printf("\n%d real-time zombie alerts over the wire (%d records in, %d events delivered, %d checks still pending)\n",
		alerts, m["livefeed_records_in_total"], m["livefeed_events_out_total"], pipe.PendingChecks())
}
