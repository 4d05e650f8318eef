package livefeed

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zombiescope/internal/bgp"
)

// startServer serves broker on a fresh loopback listener and returns its
// address.
func startServer(t *testing.T, b *Broker, allowBlock bool) (*Server, string) {
	t.Helper()
	srv := &Server{Broker: b, Name: "test/1", AllowBlock: allowBlock}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return srv, l.Addr().String()
}

// TestServerHandshake: Dial performs the full hello/subscribe/ack
// handshake and events flow end to end.
func TestServerHandshake(t *testing.T) {
	b := NewBroker(Config{})
	defer b.Close()
	b.Publish(testEvent(0))
	_, addr := startServer(t, b, false)

	conn, err := DialWith(addr, Filter{}, PolicyDropOldest, 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Hello.Server != "test/1" || conn.Hello.Version != ProtocolVersion {
		t.Fatalf("hello = %+v", conn.Hello)
	}
	if conn.Hello.Head != 1 || conn.Ack.Head != 1 {
		t.Fatalf("head: hello %d, ack %d, want 1", conn.Hello.Head, conn.Ack.Head)
	}

	b.Publish(testEvent(1))
	ev, err := conn.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || ev.Collector != "rrc00" {
		t.Fatalf("event = %+v, want seq 2 from rrc00", ev)
	}
}

// TestServerRefusesBlockPolicy: block must be an explicit server-side
// opt-in; the refusal arrives as an Error frame.
func TestServerRefusesBlockPolicy(t *testing.T) {
	b := NewBroker(Config{})
	defer b.Close()
	_, addr := startServer(t, b, false)
	if _, err := DialWith(addr, Filter{}, PolicyBlock, 0, DialOptions{}); !errors.Is(err, ErrServerRefused) {
		t.Fatalf("Dial with block policy = %v, want ErrServerRefused", err)
	}
	if n := b.SubscriberCount(); n != 0 {
		t.Fatalf("%d subscribers left after refused handshake", n)
	}

	b2 := NewBroker(Config{})
	defer b2.Close()
	_, addr2 := startServer(t, b2, true)
	conn, err := DialWith(addr2, Filter{}, PolicyBlock, 0, DialOptions{})
	if err != nil {
		t.Fatalf("Dial with block policy on AllowBlock server: %v", err)
	}
	conn.Close()
}

// TestSubscribeRefusesUnknownNames: a filter naming a channel or event
// type no event carries is refused, in process and over the wire, instead
// of being acknowledged and then starved forever. Valid names still
// subscribe.
func TestSubscribeRefusesUnknownNames(t *testing.T) {
	b := NewBroker(Config{})
	defer b.Close()
	_, addr := startServer(t, b, false)
	for _, tc := range []struct {
		f    Filter
		want string
	}{
		{Filter{Channels: []string{"anomaly"}}, `unknown channel "anomaly"`},
		{Filter{Channels: []string{ChannelZombie, "zombies"}}, `unknown channel "zombies"`},
		{Filter{Types: []string{"moas"}}, `unknown event type "moas"`},
	} {
		if sub, _, err := b.SubscribeFrom(tc.f, PolicyDropOldest, 0, false); err == nil || !strings.Contains(err.Error(), tc.want) {
			if sub != nil {
				sub.Close()
			}
			t.Errorf("SubscribeFrom(%+v) = %v, want an error containing %s", tc.f, err, tc.want)
		}
		if conn, err := DialWith(addr, tc.f, PolicyDropOldest, 0, DialOptions{}); !errors.Is(err, ErrServerRefused) || !strings.Contains(err.Error(), tc.want) {
			if conn != nil {
				conn.Close()
			}
			t.Errorf("DialWith(%+v) = %v, want ErrServerRefused naming %s", tc.f, err, tc.want)
		}
	}
	if n := b.SubscriberCount(); n != 0 {
		t.Fatalf("%d subscribers left after refused subscriptions", n)
	}

	valid := Filter{
		Channels: []string{ChannelUpdates, ChannelZombie},
		Types:    []string{TypeUpdate, TypeState, TypeZombie, TypeResurrection},
	}
	sub, _, err := b.SubscribeFrom(valid, PolicyDropOldest, 0, false)
	if err != nil {
		t.Fatalf("SubscribeFrom(valid) = %v", err)
	}
	sub.Close()
	conn, err := DialWith(addr, valid, PolicyDropOldest, 0, DialOptions{})
	if err != nil {
		t.Fatalf("DialWith(valid) = %v", err)
	}
	conn.Close()
}

// TestServerKicksSlowClient: a client that stops reading under
// kick-slowest gets disconnected with ErrKicked, and the publisher never
// stalls.
func TestServerKicksSlowClient(t *testing.T) {
	b := NewBroker(Config{RingSize: 4, ReplaySize: -1})
	defer b.Close()
	_, addr := startServer(t, b, false)
	conn, err := DialWith(addr, Filter{}, PolicyKickSlowest, 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Overrun the 4-slot ring plus whatever the kernel socket buffers
	// absorb; every Publish must return promptly.
	publishN(t, b, 100000, 30*time.Second)
	for b.SubscriberCount() > 0 {
		time.Sleep(time.Millisecond)
	}
	for {
		if _, err := conn.Next(); err != nil {
			if !errors.Is(err, ErrKicked) {
				t.Fatalf("stream error = %v, want ErrKicked", err)
			}
			return
		}
	}
}

// TestDialHandshakeTimeout is the regression test for the stalled-server
// hang: a listener that accepts and then never speaks must fail the
// handshake within the timeout instead of hanging Dial (and therefore
// Client.Run) forever.
func TestDialHandshakeTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and stall: never send Hello
		}
	}()

	start := time.Now()
	_, err = DialWith(l.Addr().String(), Filter{}, PolicyDropOldest, 0,
		DialOptions{HandshakeTimeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("Dial succeeded against a server that never completed the handshake")
	}
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("Dial = %v, want ErrHandshake", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Dial took %v to give up on a stalled handshake", elapsed)
	}
}

// TestClientIdleTimeoutReconnects: a server that completes the handshake
// and then stalls mid-stream must trip the client's idle deadline, and
// the client must redial through the normal backoff/resume path.
func TestClientIdleTimeoutReconnects(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A minimal protocol speaker that goes silent after the ack — the
	// stuck-RIB analogue at the transport layer.
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if WriteFrame(conn, FrameHello, Hello{Version: ProtocolVersion, Server: "staller"}) != nil {
					return
				}
				if _, _, err := ReadFrame(bufio.NewReader(conn)); err != nil {
					return
				}
				if WriteFrame(conn, FrameAck, Ack{}) != nil {
					return
				}
				// Stall: keep the conn open, send nothing, until the
				// client gives up and closes it.
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()

	connects := make(chan Ack, 16)
	client := &Client{
		Addr:        l.Addr().String(),
		MinBackoff:  5 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		IdleTimeout: 80 * time.Millisecond,
		OnConnect:   func(a Ack) { connects <- a },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- client.Run(ctx) }()

	// Two completed handshakes prove the idle deadline fired and the
	// client redialed rather than hanging in the first read.
	for i := 0; i < 2; i++ {
		select {
		case <-connects:
		case <-time.After(10 * time.Second):
			t.Fatalf("connection %d never completed: idle timeout did not trigger a reconnect", i+1)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestClientRunStopsOnRefusal: a refusal no redial can change — an
// unknown channel, a block policy the server does not allow — ends Run at
// once with ErrServerRefused, after one dial and without OnConnect. The
// transient refusal of a closing broker keeps the backoff and redials.
func TestClientRunStopsOnRefusal(t *testing.T) {
	serve := func(b *Broker) *countingListener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl := &countingListener{Listener: l}
		srv := &Server{Broker: b, Name: "test/1"}
		go srv.Serve(cl)
		t.Cleanup(srv.Close)
		return cl
	}
	run := func(addr string, f Filter, policy Policy, d time.Duration) (connects int32, took time.Duration, err error) {
		var n atomic.Int32
		c := &Client{Addr: addr, Filter: f, Policy: policy, MinBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
			OnConnect: func(Ack) { n.Add(1) }}
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		start := time.Now()
		err = c.Run(ctx)
		return n.Load(), time.Since(start), err
	}

	b := NewBroker(Config{})
	defer b.Close()
	l := serve(b)
	for _, tc := range []struct {
		f      Filter
		policy Policy
	}{
		{Filter{Channels: []string{"anomaly"}}, PolicyDropOldest},
		{Filter{}, PolicyBlock},
	} {
		before := l.accepts.Load()
		connects, took, err := run(l.Addr().String(), tc.f, tc.policy, 10*time.Second)
		if !errors.Is(err, ErrServerRefused) || connects != 0 || took > time.Second {
			t.Errorf("Run(%+v, %v) = %v after %v with %d connects, want ErrServerRefused in under 1s with 0", tc.f, tc.policy, err, took, connects)
		}
		if dials := l.accepts.Load() - before; dials != 1 {
			t.Errorf("Run(%+v, %v) dialed %d times, want 1", tc.f, tc.policy, dials)
		}
	}

	closed := NewBroker(Config{})
	closed.Close()
	lc := serve(closed)
	connects, _, err := run(lc.Addr().String(), Filter{}, PolicyDropOldest, 300*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) || connects != 0 || lc.accepts.Load() < 2 {
		t.Errorf("Run against a closed broker = %v with %d connects after %d dials, want redials until the deadline",
			err, connects, lc.accepts.Load())
	}
}

// TestHeartbeatKeepsIdleConnAlive: an idle but healthy feed must NOT
// trip the idle deadline — the server's heartbeats refresh it.
func TestHeartbeatKeepsIdleConnAlive(t *testing.T) {
	b := NewBroker(Config{})
	defer b.Close()
	srv := &Server{Broker: b, Name: "hb/1", HeartbeatInterval: 25 * time.Millisecond}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)

	conn, err := DialWith(l.Addr().String(), Filter{}, PolicyDropOldest, 0,
		DialOptions{IdleTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Publish nothing for several idle-timeout windows, then one event:
	// Next must survive the quiet stretch on heartbeats alone.
	got := make(chan error, 1)
	go func() {
		ev, err := conn.Next()
		if err == nil && ev.Seq != 1 {
			err = fmt.Errorf("got seq %d, want 1", ev.Seq)
		}
		got <- err
	}()
	time.Sleep(600 * time.Millisecond)
	b.Publish(testEvent(0))
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Next across an idle stretch = %v (heartbeats should have kept the conn alive)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event never arrived")
	}
}

// TestClientFromStartRecoversPrePublishedEvents is the regression test
// for the resume gap the chaos soak exposed: events published before the
// client's first successful connection were unreachable, because
// resume_from 0 means "from now". With FromStart the whole retained
// window is replayed, and Ack.Lost reports what the window had already
// evicted.
func TestClientFromStartRecoversPrePublishedEvents(t *testing.T) {
	b := NewBroker(Config{ReplaySize: 8})
	defer b.Close()
	_, addr := startServer(t, b, false)

	// 12 events through an 8-slot replay window: 1..4 are gone for good,
	// 5..12 must be recovered by a from-start subscription.
	for i := 0; i < 12; i++ {
		b.Publish(testEvent(i))
	}

	var mu sync.Mutex
	var seqs []uint64
	acks := make(chan Ack, 1)
	client := &Client{
		Addr:       addr,
		MinBackoff: 5 * time.Millisecond,
		FromStart:  true,
		OnEvent: func(ev Event) {
			mu.Lock()
			seqs = append(seqs, ev.Seq)
			mu.Unlock()
		},
		OnConnect: func(a Ack) {
			select {
			case acks <- a:
			default:
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- client.Run(ctx) }()

	ack := <-acks
	if ack.Lost != 4 {
		t.Errorf("ack.Lost = %d, want 4 (events 1..4 evicted from the window)", ack.Lost)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(seqs)
		mu.Unlock()
		if n >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 8 retained events recovered", n)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range seqs[:8] {
		if seq != uint64(i+5) {
			t.Fatalf("delivery %d has seq %d, want %d", i, seq, i+5)
		}
	}
}

// TestClientReconnectResume: a Client surviving a server restart on the
// same port resumes from its last sequence and misses nothing within the
// replay window.
func TestClientReconnectResume(t *testing.T) {
	b := NewBroker(Config{ReplaySize: 1 << 12})
	defer b.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv1 := &Server{Broker: b, Name: "restart-1"}
	go srv1.Serve(l)

	var mu sync.Mutex
	var seqs []uint64
	acks := make(chan Ack, 16)
	client := &Client{
		Addr:       addr,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		OnEvent: func(ev Event) {
			mu.Lock()
			seqs = append(seqs, ev.Seq)
			mu.Unlock()
		},
		OnConnect: func(a Ack) { acks <- a },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- client.Run(ctx) }()
	<-acks // first connection up

	waitSeqs := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			got := len(seqs)
			mu.Unlock()
			if got >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d events (have %d)", n, got)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for i := 0; i < 10; i++ {
		b.Publish(testEvent(i))
	}
	waitSeqs(10)

	// Restart: kill the server (dropping the connection), publish while the
	// client is down, then serve again on the same port.
	srv1.Close()
	for i := 10; i < 20; i++ {
		b.Publish(testEvent(i))
	}
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &Server{Broker: b, Name: "restart-2"}
	go srv2.Serve(l2)
	defer srv2.Close()

	ack := <-acks // reconnected
	if ack.Lost != 0 {
		t.Errorf("replay window covers the outage but ack.Lost = %d", ack.Lost)
	}
	waitSeqs(20)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d, want %d (gap or duplicate across the restart)", i, seq, i+1)
		}
	}
}

// ownedEvents is an update that takes Conn.Next's fast path and an alert
// that takes its json.Unmarshal fallback, each with every field class a
// decode could alias: strings, prefixes, paths and raw bytes.
func ownedEvents(i int) (update, alert Event) {
	ts := time.Date(2024, 6, 10, 12, 0, i, 0, time.UTC)
	peer := netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
	pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16+i%8)
	update = Event{
		Seq: uint64(2*i + 1), Channel: ChannelUpdates, Type: TypeUpdate, Collector: fmt.Sprintf("rrc%02d", i),
		Timestamp: ts, PeerAS: bgp.ASN(64500 + i), Peer: peer, Path: []bgp.ASN{bgp.ASN(64500 + i), 3356, 12654},
		Announcements: []Announcement{{NextHop: peer, Prefixes: []netip.Prefix{pfx}}},
		Withdrawals:   []netip.Prefix{pfx},
		Raw:           bytes.Repeat([]byte{byte(i)}, 32+i),
	}
	alert = Event{
		Seq: uint64(2*i + 2), Channel: ChannelZombie, Type: TypeZombie, Collector: fmt.Sprintf("rrc%02d", i),
		Timestamp: ts, PeerAS: bgp.ASN(64500 + i), Peer: peer,
		Alert: &Alert{Prefix: pfx, Path: []bgp.ASN{bgp.ASN(64500 + i), 3356}, AnnouncedAt: ts, DetectedAt: ts},
	}
	return update, alert
}

// frameStream renders events as the event frames a server writes.
func frameStream(t *testing.T, evs ...Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range evs {
		if err := WriteFrame(&buf, FrameEvent, &evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestConnNextOwnsEvents: Conn.Next reads every frame into one buffer per
// connection, so an Event it returned must own its memory. Each event,
// from the fast path and from the json.Unmarshal fallback, must be
// unchanged after ten more Next calls have overwritten the buffer. A
// larger frame goes first, so no later frame needs a new buffer.
func TestConnNextOwnsEvents(t *testing.T) {
	big, _ := ownedEvents(0)
	big.Raw = make([]byte, 1024)
	update, alert := ownedEvents(0)
	for _, first := range []Event{update, alert} {
		evs := []Event{big, first}
		for i := 1; i <= 5; i++ {
			u, a := ownedEvents(i)
			evs = append(evs, u, a)
		}
		c := &Conn{br: bufio.NewReader(bytes.NewReader(frameStream(t, evs...)))}
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
		got, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		var want Event
		if err := json.Unmarshal(frameStream(t, first)[frameHeaderLen:], &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s event decodes as %+v, want %+v", first.Channel, got, want)
		}
		for i := 0; i < 10; i++ {
			if _, err := c.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s event changed under later reads: %+v, want %+v", first.Channel, got, want)
		}
	}
}

// repeatReader yields frame over and over.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestConnNextAllocFence is the allocation contract of the client read
// path: an update frame costs one allocation per slice the Event owns (5
// for this one: path, announcements, their prefixes, withdrawals and raw
// bytes). The frame is read into the connection's buffer, the channel and
// type names are shared constants, each slice is sized before it is
// filled, and the collector name, timestamp, addresses and prefixes come
// from the connection's decode cache. Growing the path by append and
// parsing every text made it 11; the payload buffer, the header and the
// channel and type names made it 15 before that.
func TestConnNextAllocFence(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	update, _ := ownedEvents(3)
	c := &Conn{br: bufio.NewReader(&repeatReader{frame: frameStream(t, update)})}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per update frame: %.1f", allocs)
	if allocs > 5 {
		t.Errorf("Conn.Next costs %.1f allocs per update frame, want <= 5", allocs)
	}
}
