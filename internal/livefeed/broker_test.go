package livefeed

import (
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"zombiescope/internal/bgp"
)

func testEvent(i int) Event {
	return Event{
		Channel:   ChannelUpdates,
		Type:      TypeUpdate,
		Collector: "rrc00",
		Timestamp: time.Unix(int64(1700000000+i), 0).UTC(),
	}
}

// subQueued is how many events s has queued.
func subQueued(s *Subscriber) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// subDrops is how many events s lost to drop-oldest.
func subDrops(s *Subscriber) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
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
		if subQueued(sub) > ring {
			t.Fatalf("subscriber queue grew to %d, ring size is %d", subQueued(sub), ring)
		}
	}
	publishN(t, b, n, 10*time.Second) // and under concurrency, without the per-publish check
	if subQueued(sub) != ring {
		t.Fatalf("queue holds %d events, want full ring of %d", subQueued(sub), ring)
	}
	wantDrops := uint64(2*n - ring)
	if subDrops(sub) != wantDrops {
		t.Errorf("drops = %d, want %d", subDrops(sub), wantDrops)
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
	if subDrops(sub) != 0 {
		t.Errorf("block policy dropped %d events", subDrops(sub))
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
	if subQueued(sub) != 0 {
		t.Fatalf("%d unexpected events queued", subQueued(sub))
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

// TestFanoutFilters: every subscriber receives exactly the events its
// filter's Match accepts, in sequence order. The seeded table covers all
// five filter dimensions, prefix more-specifics, and filters that differ
// only in value order or duplicates; mid-stream, a subscriber in the
// middle of the list and the one the swap-remove moved into its slot
// close, and a new one joins.
func TestFanoutFilters(t *testing.T) {
	pfx := netip.MustParsePrefix
	filters := []Filter{
		{},
		{Channels: []string{ChannelZombie}},
		{Channels: []string{ChannelUpdates, ChannelZombie}},
		{Channels: []string{ChannelZombie, ChannelUpdates, ChannelZombie}},
		{Types: []string{TypeUpdate}},
		{Types: []string{TypeState, TypeZombie}},
		{Types: []string{TypeZombie, TypeState, TypeState}},
		{Collectors: []string{"rrc01"}},
		{Collectors: []string{"rrc06", "rrc01", "rrc06"}},
		{PeerAS: []bgp.ASN{64501, 64502}},
		{PeerAS: []bgp.ASN{64502, 64501, 64501}},
		{Prefixes: []netip.Prefix{pfx("10.0.0.0/8")}},
		{Prefixes: []netip.Prefix{pfx("10.1.0.0/16"), pfx("2001:db8::/32")}},
		{Prefixes: []netip.Prefix{pfx("2001:db8::/32"), pfx("10.1.0.0/16"), pfx("10.1.0.0/16")}},
		{Channels: []string{ChannelUpdates}, Types: []string{TypeUpdate}, Collectors: []string{"rrc00"},
			PeerAS: []bgp.ASN{64500}, Prefixes: []netip.Prefix{pfx("10.0.0.0/8")}},
	}
	prefixes := []netip.Prefix{
		pfx("10.1.2.0/24"), pfx("10.1.0.0/16"), pfx("10.200.0.0/16"),
		pfx("192.0.2.0/24"), pfx("2001:db8:1::/48"), pfx("2001:db9::/48"),
	}

	// The oracle's prefix semantics, pinned by hand: a more-specific
	// passes a covering filter, a sibling does not, and neither check
	// allocates.
	covering := Filter{Prefixes: []netip.Prefix{pfx("10.0.0.0/8")}}
	inside := Event{Alert: &Alert{Prefix: pfx("10.1.2.0/24")}}
	outside := Event{Withdrawals: []netip.Prefix{pfx("192.0.2.0/24")}}
	if !covering.Match(&inside) || covering.Match(&outside) {
		t.Fatal("prefix filter 10.0.0.0/8: want 10.1.2.0/24 in and 192.0.2.0/24 out")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { covering.Match(&inside); covering.Match(&outside) }); n != 0 {
			t.Errorf("prefix Filter.Match allocates %.0f times per call pair, want 0", n)
		}
	}

	rng := rand.New(rand.NewSource(39))
	event := func(i int) Event {
		ev := testEvent(i)
		ev.Collector = []string{"rrc00", "rrc01", "rrc06"}[rng.Intn(3)]
		ev.PeerAS = bgp.ASN(64500 + rng.Intn(4))
		p := prefixes[rng.Intn(len(prefixes))]
		switch rng.Intn(4) {
		case 0:
			ev.Channel, ev.Type = ChannelZombie, TypeZombie
			ev.Alert = &Alert{Prefix: p}
		case 1:
			ev.Type = TypeState // no prefix: every prefix filter rejects it
		case 2:
			ev.Withdrawals = []netip.Prefix{p}
		default:
			ev.Announcements = []Announcement{{
				NextHop:  netip.MustParseAddr("192.0.2.1"),
				Prefixes: []netip.Prefix{p, prefixes[rng.Intn(len(prefixes))]},
			}}
		}
		return ev
	}

	type tracked struct {
		f    Filter
		sub  *Subscriber
		want []uint64
	}
	b := NewBroker(Config{RingSize: 1024, ReplaySize: -1})
	var all, live []*tracked
	subscribe := func(f Filter) {
		sub, _, err := b.Subscribe(f, PolicyDropOldest, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracked{f: f, sub: sub}
		all = append(all, tr)
		live = append(live, tr)
	}
	publish := func(n int) {
		for i := 0; i < n; i++ {
			ev := event(i)
			ev.Seq = b.Publish(ev)
			for _, tr := range live {
				if tr.f.Match(&ev) {
					tr.want = append(tr.want, ev.Seq)
				}
			}
		}
	}
	for _, f := range filters {
		subscribe(f)
	}
	publish(200)
	// Close the subscriber in the middle of the list, then the one the
	// swap-remove moved into its slot, and add a newcomer at the end.
	mid, last := live[len(live)/2], live[len(live)-1]
	mid.sub.Close()
	last.sub.Close()
	live = slices.DeleteFunc(live, func(tr *tracked) bool { return tr == mid || tr == last })
	subscribe(filters[len(filters)-1])
	if n := b.SubscriberCount(); n != len(live) {
		t.Fatalf("%d subscribers attached after the churn, want %d", n, len(live))
	}
	publish(200)

	for i, tr := range all {
		if len(tr.want) == 0 {
			t.Errorf("subscriber %d %+v: the table never matched it", i, tr.f)
		}
		var got []uint64
		for subQueued(tr.sub) > 0 {
			ev, err := tr.sub.Next()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ev.Seq)
		}
		if !slices.Equal(got, tr.want) {
			t.Errorf("subscriber %d %+v received %d events %v, want the %d Match accepts %v",
				i, tr.f, len(got), got, len(tr.want), tr.want)
		}
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
