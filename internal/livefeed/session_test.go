package livefeed

import (
	"bytes"
	"strings"
	"testing"

	"zombiescope/internal/obs/obstest"
)

// scrapeSamples renders the broker's registry (running its scrape hooks)
// and returns the parsed samples.
func scrapeSamples(t *testing.T, b *Broker) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Metrics().Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return obstest.ParsePrometheus(t, buf.String())
}

func lagKey(s *Subscriber) string { return `livefeed_subscriber_lag{id="` + s.idStr + `"}` }
func qKey(s *Subscriber) string   { return `livefeed_subscriber_queue{id="` + s.idStr + `"}` }

// Per-subscriber lag gauges must report the head distance while a
// subscriber is behind and return to zero once it catches up — under
// every backpressure policy.
func TestSubscriberLagGauges(t *testing.T) {
	for _, policy := range []Policy{PolicyDropOldest, PolicyKickSlowest, PolicyBlock} {
		t.Run(policy.String(), func(t *testing.T) {
			b := NewBroker(Config{RingSize: 32})
			defer b.Close()
			sub, _, err := b.Subscribe(Filter{}, policy, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				b.Publish(Event{Channel: ChannelUpdates})
			}
			samples := scrapeSamples(t, b)
			if got := samples[lagKey(sub)]; got != 10 {
				t.Errorf("lag before consuming = %v, want 10", got)
			}
			if got := samples[qKey(sub)]; got != 10 {
				t.Errorf("queue before consuming = %v, want 10", got)
			}
			for i := 0; i < 10; i++ {
				ev, err := sub.Next()
				if err != nil {
					t.Fatal(err)
				}
				if want := uint64(i + 1); ev.Seq != want {
					t.Fatalf("seq %d, want %d", ev.Seq, want)
				}
			}
			samples = scrapeSamples(t, b)
			if got := samples[lagKey(sub)]; got != 0 {
				t.Errorf("lag after catch-up = %v, want 0", got)
			}
			if got := samples[qKey(sub)]; got != 0 {
				t.Errorf("queue after catch-up = %v, want 0", got)
			}
			sub.Close()
			// Detach must delete the session's gauge children, or the vec
			// grows one dead series per connection forever.
			var buf bytes.Buffer
			b.Metrics().Registry().WritePrometheus(&buf)
			if strings.Contains(buf.String(), `id="`+sub.idStr+`"`) {
				t.Errorf("closed session still exposed:\n%s", buf.String())
			}
		})
	}
}

// Under drop-oldest, a full ring holds lag at (head - consumed) even as
// events are evicted; lag still converges to zero after draining.
func TestSubscriberLagUnderDropOldest(t *testing.T) {
	b := NewBroker(Config{RingSize: 4})
	defer b.Close()
	sub, _, err := b.Subscribe(Filter{}, PolicyDropOldest, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.Publish(Event{Channel: ChannelUpdates})
	}
	samples := scrapeSamples(t, b)
	if got := samples[lagKey(sub)]; got != 20 {
		t.Errorf("lag with full ring = %v, want 20", got)
	}
	if got := samples[qKey(sub)]; got != 4 {
		t.Errorf("queue with full ring = %v, want ring size 4", got)
	}
	// Drain the 4 survivors (seqs 17..20): the subscriber is now at the
	// head, so lag reads zero even though 16 events were dropped.
	for i := 0; i < 4; i++ {
		if _, err := sub.Next(); err != nil {
			t.Fatal(err)
		}
	}
	samples = scrapeSamples(t, b)
	if got := samples[lagKey(sub)]; got != 0 {
		t.Errorf("lag after draining = %v, want 0", got)
	}
	if got := subDrops(sub); got != 16 {
		t.Errorf("drops = %d, want 16", got)
	}
}

// A resuming subscriber starts lagging by its catch-up distance and
// converges to zero as the backfill drains.
func TestSubscriberLagDuringResume(t *testing.T) {
	b := NewBroker(Config{RingSize: 32})
	defer b.Close()
	for i := 0; i < 8; i++ {
		b.Publish(Event{Channel: ChannelUpdates})
	}
	sub, lost, err := b.Subscribe(Filter{}, PolicyDropOldest, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("lost = %d, want 0 (replay window holds everything)", lost)
	}
	samples := scrapeSamples(t, b)
	if got := samples[lagKey(sub)]; got != 6 {
		t.Errorf("lag at resume = %v, want 6 (head 8, resumed from 2)", got)
	}
	for i := 0; i < 6; i++ {
		ev, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(3 + i); ev.Seq != want {
			t.Fatalf("seq %d, want %d", ev.Seq, want)
		}
	}
	samples = scrapeSamples(t, b)
	if got := samples[lagKey(sub)]; got != 0 {
		t.Errorf("lag after catch-up = %v, want 0", got)
	}
}

func TestSessions(t *testing.T) {
	b := NewBroker(Config{RingSize: 8})
	defer b.Close()
	s1, _, _ := b.Subscribe(Filter{}, PolicyDropOldest, 0)
	s2, _, _ := b.Subscribe(Filter{}, PolicyKickSlowest, 0)
	for i := 0; i < 3; i++ {
		b.Publish(Event{Channel: ChannelUpdates})
	}
	if _, err := s1.Next(); err != nil {
		t.Fatal(err)
	}
	infos := b.Sessions()
	if len(infos) != 2 {
		t.Fatalf("Sessions() returned %d entries, want 2", len(infos))
	}
	if infos[0].ID != s1.id || infos[1].ID != s2.id {
		t.Errorf("sessions not sorted by id: %+v", infos)
	}
	if infos[0].Policy != "drop-oldest" || infos[1].Policy != "kick-slowest" {
		t.Errorf("policies wrong: %+v", infos)
	}
	if infos[0].Delivered != 1 || infos[0].Queue != 2 || infos[0].Lag != 2 {
		t.Errorf("s1 session = %+v, want delivered 1, queue 2, lag 2", infos[0])
	}
	if infos[1].Delivered != 0 || infos[1].Queue != 3 || infos[1].Lag != 3 {
		t.Errorf("s2 session = %+v, want delivered 0, queue 3, lag 3", infos[1])
	}
	if infos[0].UptimeSeconds < 0 || infos[0].Cap != 8 {
		t.Errorf("s1 uptime/cap wrong: %+v", infos[0])
	}
	s1.Close()
	if got := len(b.Sessions()); got != 1 {
		t.Errorf("Sessions() after close = %d entries, want 1", got)
	}
}
