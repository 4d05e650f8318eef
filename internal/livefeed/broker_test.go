package livefeed

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func testEvent(i int) Event {
	return Event{
		Channel:   ChannelUpdates,
		Type:      TypeUpdate,
		Collector: "rrc00",
		Timestamp: time.Unix(int64(1700000000+i), 0).UTC(),
	}
}

// publishN publishes n events, failing the test if the whole batch does
// not complete within the deadline (i.e. a slow subscriber stalled
// ingestion).
func publishN(t *testing.T, b *Broker, n int, deadline time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			b.Publish(testEvent(i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("publishing %d events did not complete within %v: slow subscriber stalled ingestion", n, deadline)
	}
}

// TestDropOldestNeverStallsOrGrows is the backpressure acceptance
// criterion: a subscriber that never reads must not block ingestion, and
// the broker's per-subscriber memory must stay within the configured ring
// size, with every eviction counted.
func TestDropOldestNeverStallsOrGrows(t *testing.T) {
	const ring, n = 8, 10000
	b := NewBroker(Config{RingSize: ring, ReplaySize: -1})
	sub, _, err := b.Subscribe(Filter{}, PolicyDropOldest, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b.Publish(testEvent(i))
		if sub.Len() > ring {
			t.Fatalf("subscriber queue grew to %d, ring size is %d", sub.Len(), ring)
		}
	}
	publishN(t, b, n, 10*time.Second) // and under concurrency, without the per-publish check
	if sub.Len() != ring {
		t.Fatalf("queue holds %d events, want full ring of %d", sub.Len(), ring)
	}
	wantDrops := uint64(2*n - ring)
	if sub.Drops() != wantDrops {
		t.Errorf("drops = %d, want %d", sub.Drops(), wantDrops)
	}
	if got := b.Metrics().dropsDropOldest.Value(); got != int64(wantDrops) {
		t.Errorf("metrics drops = %d, want %d", got, wantDrops)
	}
	// The survivors are the freshest window, in order.
	for i := 0; i < ring; i++ {
		ev, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(2*n - ring + i + 1); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestKickSlowestNeverStalls: overflowing a kick-slowest subscriber
// disconnects it instead of blocking or dropping, and ingestion
// continues.
func TestKickSlowestNeverStalls(t *testing.T) {
	const ring = 4
	b := NewBroker(Config{RingSize: ring, ReplaySize: -1})
	sub, _, err := b.Subscribe(Filter{}, PolicyKickSlowest, 0)
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, b, ring+1, 10*time.Second)
	if n := b.SubscriberCount(); n != 0 {
		t.Fatalf("kicked subscriber still attached (%d)", n)
	}
	// The buffered events drain, then the kick surfaces.
	for i := 0; i < ring; i++ {
		if _, err := sub.Next(); err != nil {
			t.Fatalf("draining event %d: %v", i, err)
		}
	}
	if _, err := sub.Next(); !errors.Is(err, ErrKicked) {
		t.Fatalf("Next after kick = %v, want ErrKicked", err)
	}
	if got := b.Metrics().kicks.Value(); got != 1 {
		t.Errorf("metrics kicks = %d, want 1", got)
	}
	publishN(t, b, 100, 10*time.Second) // feed continues without subscribers
}

// TestBlockPolicyLossless: block trades liveness for losslessness — the
// publisher waits, and every event arrives exactly once, in order.
func TestBlockPolicyLossless(t *testing.T) {
	const ring, n = 2, 500
	b := NewBroker(Config{RingSize: ring, ReplaySize: -1})
	sub, _, err := b.Subscribe(Filter{}, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			b.Publish(testEvent(i))
		}
	}()
	for i := 0; i < n; i++ {
		ev, err := sub.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (lost or reordered)", i, ev.Seq, i+1)
		}
	}
	wg.Wait()
	if stalls := b.Metrics().blockStalls.Value(); stalls == 0 {
		t.Error("expected at least one block stall with ring 2 and 500 events")
	}
	if sub.Drops() != 0 {
		t.Errorf("block policy dropped %d events", sub.Drops())
	}
}

// TestBlockedPublishUnblocksOnClose: closing a block-policy subscriber
// releases a publisher stuck waiting for space.
func TestBlockedPublishUnblocksOnClose(t *testing.T) {
	b := NewBroker(Config{RingSize: 1, ReplaySize: -1})
	sub, _, err := b.Subscribe(Filter{}, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(testEvent(0)) // fills the ring
	released := make(chan struct{})
	go func() {
		b.Publish(testEvent(1)) // blocks until the subscriber goes away
		close(released)
	}()
	time.Sleep(50 * time.Millisecond) // let the publisher reach the wait
	sub.Close()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher still blocked after subscriber close")
	}
}

// TestResumeFromSequence: a subscriber resuming from a sequence number
// receives exactly the retained events after it, and the lost count
// reports the replay-window shortfall.
func TestResumeFromSequence(t *testing.T) {
	b := NewBroker(Config{RingSize: 64, ReplaySize: 64})
	for i := 0; i < 10; i++ {
		b.Publish(testEvent(i))
	}
	sub, lost, err := b.Subscribe(Filter{}, PolicyDropOldest, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("lost = %d, want 0 (window covers the gap)", lost)
	}
	for want := uint64(5); want <= 10; want++ {
		ev, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != want {
			t.Fatalf("resumed seq %d, want %d", ev.Seq, want)
		}
	}
	if sub.Len() != 0 {
		t.Fatalf("%d unexpected events queued", sub.Len())
	}

	// A window smaller than the gap reports the shortfall.
	b2 := NewBroker(Config{RingSize: 64, ReplaySize: 4})
	for i := 0; i < 10; i++ {
		b2.Publish(testEvent(i))
	}
	sub2, lost2, err := b2.Subscribe(Filter{}, PolicyDropOldest, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lost2 != 4 { // seqs 3..6 fell out of the 4-event window (7..10 retained)
		t.Fatalf("lost = %d, want 4", lost2)
	}
	for want := uint64(7); want <= 10; want++ {
		ev, err := sub2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != want {
			t.Fatalf("resumed seq %d, want %d", ev.Seq, want)
		}
	}
}

// TestFanoutFilters: each subscriber receives exactly its filtered
// subset, in publish order.
func TestFanoutFilters(t *testing.T) {
	b := NewBroker(Config{ReplaySize: -1})
	all, _, err := b.Subscribe(Filter{}, PolicyDropOldest, 0)
	if err != nil {
		t.Fatal(err)
	}
	zombiesOnly, _, err := b.Subscribe(Filter{Channels: []string{ChannelZombie}}, PolicyDropOldest, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		ev := testEvent(i)
		if i%3 == 0 {
			ev.Channel = ChannelZombie
			ev.Type = TypeZombie
		}
		b.Publish(ev)
	}
	if all.Len() != 30 {
		t.Errorf("unfiltered subscriber queued %d events, want 30", all.Len())
	}
	if zombiesOnly.Len() != 10 {
		t.Errorf("zombie subscriber queued %d events, want 10", zombiesOnly.Len())
	}
	var prev uint64
	for i := 0; i < 10; i++ {
		ev, err := zombiesOnly.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Channel != ChannelZombie {
			t.Fatalf("leaked %s event through the channel filter", ev.Channel)
		}
		if ev.Seq <= prev {
			t.Fatalf("out of order: seq %d after %d", ev.Seq, prev)
		}
		prev = ev.Seq
	}
}

// TestBrokerClose: closing the broker wakes subscribers with
// ErrBrokerClosed and refuses new work.
func TestBrokerClose(t *testing.T) {
	b := NewBroker(Config{})
	sub, _, err := b.Subscribe(Filter{}, PolicyDropOldest, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := sub.Next()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrBrokerClosed) {
			t.Fatalf("Next after Close = %v, want ErrBrokerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next did not wake on broker close")
	}
	if seq := b.Publish(testEvent(0)); seq != 0 {
		t.Errorf("Publish after Close returned seq %d", seq)
	}
	if _, _, err := b.Subscribe(Filter{}, PolicyDropOldest, 0); !errors.Is(err, ErrBrokerClosed) {
		t.Errorf("Subscribe after Close = %v, want ErrBrokerClosed", err)
	}
}

// TestConcurrentPublishSubscribe hammers the broker from multiple
// goroutines (this is the test -race watches).
func TestConcurrentPublishSubscribe(t *testing.T) {
	b := NewBroker(Config{RingSize: 32, ReplaySize: 128})
	var pubs, consumers sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < 500; i++ {
				b.Publish(testEvent(p*1000 + i))
			}
		}(p)
	}
	for c := 0; c < 8; c++ {
		consumers.Add(1)
		go func(c int) {
			defer consumers.Done()
			policy := Policy(c % 2) // drop-oldest and kick-slowest
			sub, _, err := b.Subscribe(Filter{}, policy, uint64(c))
			if errors.Is(err, ErrBrokerClosed) || errors.Is(err, ErrKicked) {
				// Closed before attaching, or kicked during the resume
				// replay (the window can overrun the ring): both fine.
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, err := sub.Next(); err != nil {
					return // kicked or closed: fine
				}
			}
		}(c)
	}
	pubs.Wait()
	b.Close() // wakes every consumer still waiting in Next
	consumers.Wait()
	m := b.Metrics()
	if got := m.recordsIn.Value(); got != 2000 {
		t.Errorf("records_in = %d, want 2000", got)
	}
	if got := m.subscribers.Value(); got != 0 {
		t.Errorf("subscribers = %v after close, want 0", got)
	}
}
