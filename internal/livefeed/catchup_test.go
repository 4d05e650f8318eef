package livefeed

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/eventstore"
)

// journaledBroker is a broker with a 16-slot subscriber ring and an
// 8-event replay window over a fresh event store, so any catch-up longer
// than a handful of events is served from the journal.
func journaledBroker(t *testing.T) *Broker {
	t.Helper()
	st, err := eventstore.Open(eventstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(Config{RingSize: 16, ReplaySize: 8, Journal: &StoreJournal{Store: st}})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})
	return b
}

// drainContiguous reads sub until it delivers seq last, requiring every
// sequence from first on, in order.
func drainContiguous(t *testing.T, sub *Subscriber, first, last uint64) {
	t.Helper()
	for want := first; want <= last; want++ {
		ev, err := nextTimeout(sub, 5*time.Second)
		if err != nil {
			t.Fatalf("waiting for seq %d: %v (drops %d)", want, err, subDrops(sub))
		}
		if ev.Seq != want {
			t.Fatalf("got seq %d, want %d (drops %d)", ev.Seq, want, subDrops(sub))
		}
	}
}

// TestCatchUpTakesNoLivePushes: a from-start drop-oldest subscriber that
// reads nothing while 300 more events are published must not have live
// pushes overrun its 16-slot ring: the journal serves its whole range, and
// it drains 1..600 without a drop.
func TestCatchUpTakesNoLivePushes(t *testing.T) {
	b := journaledBroker(t)
	evs := syntheticEvents(600)
	for _, ev := range evs[:300] {
		b.Publish(ev)
	}
	sub, lost, err := b.SubscribeFrom(Filter{}, PolicyDropOldest, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("lost = %d, want 0", lost)
	}
	for _, ev := range evs[300:] {
		b.Publish(ev)
	}
	drainContiguous(t, sub, 1, 600)
	if d := subDrops(sub); d != 0 {
		t.Fatalf("catch-up dropped %d events", d)
	}
}

// TestCatchUpBlockDoesNotStallPublisher: a block-policy subscriber in
// catch-up has no ring for Publish to wait on, so a subscriber that reads
// nothing leaves the publisher running; it then drains every event.
func TestCatchUpBlockDoesNotStallPublisher(t *testing.T) {
	b := journaledBroker(t)
	for _, ev := range syntheticEvents(100) {
		b.Publish(ev)
	}
	sub, _, err := b.SubscribeFrom(Filter{}, PolicyBlock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() // before the broker's, so a stalled publisher is released
	publishN(t, b, 40, 2*time.Second)
	drainContiguous(t, sub, 1, 140)
	if stalls := b.Metrics().blockStalls.Value(); stalls != 0 {
		t.Fatalf("publisher stalled %d times on a catching-up subscriber", stalls)
	}
}

// TestCatchUpUnderConcurrentPublish: from-start subscribers of every
// policy, filtered and not, catch up while a publisher keeps running, and
// join live delivery somewhere along the way. Each must see exactly the
// events its filter matches, in order, once each: the switch from the
// backlog to the live ring can neither skip nor repeat a sequence. The
// publisher never lets a live ring pass half full, so no drop or kick is
// legitimate.
func TestCatchUpUnderConcurrentPublish(t *testing.T) {
	n := 3000
	if raceEnabled {
		n = 1000
	}
	b := journaledBroker(t)
	evs := syntheticEvents(n)
	pre := n / 4
	for _, ev := range evs[:pre] {
		b.Publish(ev)
	}

	filters := []Filter{{}, {PeerAS: []bgp.ASN{64501}}}
	type reader struct {
		name string
		sub  *Subscriber
		want []uint64
	}
	var readers []reader
	for _, f := range filters {
		var want []uint64
		for i := range evs {
			if f.Match(&evs[i]) {
				want = append(want, uint64(i+1))
			}
		}
		for _, p := range []Policy{PolicyDropOldest, PolicyBlock, PolicyKickSlowest} {
			sub, lost, err := b.SubscribeFrom(f, p, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if lost != 0 {
				t.Fatalf("%v: lost = %d, want 0", p, lost)
			}
			readers = append(readers, reader{fmt.Sprintf("%v/peers=%v", p, f.PeerAS), sub, want})
		}
	}

	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for _, ev := range evs[pre:] {
			for _, r := range readers {
				for subQueued(r.sub) > len(r.sub.buf)/2 {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}
			b.Publish(ev)
		}
	}()

	errs := make(chan error, len(readers))
	var wg sync.WaitGroup
	for k, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stagger the start, so the readers reach the head, and join
			// live delivery, at different points of the publishing. The
			// wait is bounded: a publisher stalled on a reader that has
			// not started must fail the test, not hang it.
			start := time.Now()
			for b.headSeq.Load() < uint64(pre+k*(n-pre)/len(readers)) && time.Since(start) < time.Second {
				time.Sleep(100 * time.Microsecond)
			}
			if q := subQueued(r.sub); q != 0 {
				errs <- fmt.Errorf("%s: %d live events queued ahead of its catch-up", r.name, q)
				return
			}
			for i, want := range r.want {
				ev, err := nextTimeout(r.sub, 10*time.Second)
				if err != nil {
					errs <- fmt.Errorf("%s: waiting for seq %d (event %d of %d): %w", r.name, want, i, len(r.want), err)
					return
				}
				if ev.Seq != want {
					errs <- fmt.Errorf("%s: got seq %d, want %d", r.name, ev.Seq, want)
					return
				}
			}
			if d := subDrops(r.sub); d != 0 {
				errs <- fmt.Errorf("%s: %d drops", r.name, d)
			}
		}()
	}
	wg.Wait()
	close(stop)
	for _, r := range readers {
		if q := subQueued(r.sub); q != 0 {
			t.Errorf("%s: %d events queued after the last one", r.name, q)
		}
		r.sub.Close() // releases a publisher blocked on a full ring
	}
	<-published
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if k := b.Metrics().kicks.Value(); k != 0 {
		t.Errorf("%d subscribers kicked", k)
	}
}

// wedgedJournal stops appending after seq last, as a store does once one
// append fails.
type wedgedJournal struct {
	*StoreJournal
	last uint64
}

func (j wedgedJournal) Append(ev Event, payload []byte) error {
	if ev.Seq > j.last {
		return errors.New("disk full")
	}
	return j.StoreJournal.Append(ev, payload)
}

// TestCatchUpWedgedJournalEndsWithErrJournal: a catch-up whose journal
// range runs past the journal's last event gets what the journal holds,
// then ErrJournal, not a silent jump to the replay window.
func TestCatchUpWedgedJournalEndsWithErrJournal(t *testing.T) {
	st, err := eventstore.Open(eventstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := NewBroker(Config{RingSize: 16, ReplaySize: 8, Journal: wedgedJournal{&StoreJournal{Store: st}, 100}})
	defer b.Close()
	for _, ev := range syntheticEvents(300) {
		b.Publish(ev)
	}
	sub, _, err := b.SubscribeFrom(Filter{}, PolicyDropOldest, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	drainContiguous(t, sub, 1, 100)
	if ev, err := nextTimeout(sub, 5*time.Second); !errors.Is(err, ErrJournal) {
		t.Fatalf("after the journal's last event: seq %d, err %v; want ErrJournal", ev.Seq, err)
	}
}

// TestCatchUpNoJournalJoinsAtWindow: without a journal the replay window
// is the only copy of the catch-up, and any publish may evict from it, so
// a resuming subscriber joins live delivery at subscribe: the evicted gap
// is lost, the window is served, and live events published meanwhile fill
// its ring under its policy.
func TestCatchUpNoJournalJoinsAtWindow(t *testing.T) {
	b := NewBroker(Config{RingSize: 16, ReplaySize: 8})
	defer b.Close()
	evs := syntheticEvents(50)
	for _, ev := range evs[:20] {
		b.Publish(ev)
	}
	sub, lost, err := b.Subscribe(Filter{}, PolicyDropOldest, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 7 { // 6..12 fell out of the window 13..20
		t.Fatalf("lost = %d, want 7", lost)
	}
	for _, ev := range evs[20:] {
		b.Publish(ev)
	}
	if d := subDrops(sub); d != 14 { // 30 live pushes into 16 slots
		t.Fatalf("drops = %d, want 14", d)
	}
	drainContiguous(t, sub, 13, 20)
	drainContiguous(t, sub, 35, 50)
}

// TestCatchUpNoJournalBlockResume: without a journal a resuming block-
// policy subscriber joins live delivery while its window snapshot is still
// unserved, so a publisher can fill its ring and wait on it under the
// broker lock. Serving the rest of the snapshot and moving on to the live
// ring must not need that lock.
func TestCatchUpNoJournalBlockResume(t *testing.T) {
	b := NewBroker(Config{RingSize: 16, ReplaySize: 64})
	defer b.Close()
	evs := syntheticEvents(104)
	for _, ev := range evs[:64] {
		b.Publish(ev)
	}
	sub, _, err := b.Subscribe(Filter{}, PolicyBlock, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() // before the broker's, so a stalled publisher is released
	go func() {
		for _, ev := range evs[64:] {
			b.Publish(ev)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); b.Metrics().blockStalls.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("publisher never waited on the full ring (queued %d)", subQueued(sub))
		}
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() {
		for want := uint64(2); want <= 104; want++ {
			ev, err := sub.Next()
			if err == nil && ev.Seq != want {
				err = fmt.Errorf("got seq %d, want %d", ev.Seq, want)
			}
			if err != nil {
				drained <- err
				return
			}
		}
		drained <- nil
	}()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain stalled: the consumer and the waiting publisher wait on each other")
	}
}

// ackArmConn calls onAck when the server arms its second write deadline:
// the server arms one before its hello and one before its ack, after the
// subscription is taken.
type ackArmConn struct {
	net.Conn
	onAck func()
	arms  int
}

func (c *ackArmConn) SetWriteDeadline(t time.Time) error {
	if c.arms++; c.arms == 2 {
		c.onAck()
	}
	return c.Conn.SetWriteDeadline(t)
}

type ackArmListener struct {
	net.Listener
	onAck func()
}

func (l ackArmListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ackArmConn{Conn: c, onAck: l.onAck}, nil
}

// TestAckHeadBoundsFromNow: a from-now subscriber is delivered only
// events above the Ack's head, even when an event is published between
// the subscription and the Ack, as it is here on every dial.
func TestAckHeadBoundsFromNow(t *testing.T) {
	b := NewBroker(Config{})
	defer b.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Broker: b, Name: "test/1"}
	go srv.Serve(ackArmListener{l, func() { b.Publish(testEvent(0)) }})
	defer srv.Close()
	for i := 0; i < 100; i++ {
		conn, err := DialWith(l.Addr().String(), Filter{}, PolicyDropOldest, 0, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := conn.Next()
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq <= conn.Ack.Head {
			t.Fatalf("dial %d: first event seq %d at or below Ack.Head %d", i, ev.Seq, conn.Ack.Head)
		}
	}
}
