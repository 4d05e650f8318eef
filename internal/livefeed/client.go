package livefeed

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"zombiescope/internal/mrt"
)

// Conn is one established feed connection after a successful handshake.
// It asks for Record frames and decodes them, like Event frames from a
// server that predates them, into the same Event.
type Conn struct {
	conn net.Conn
	rd   idleReader
	br   *bufio.Reader
	// hdr and buf hold the frame Next is reading. Every decode path
	// copies what it keeps, so one buffer serves the whole connection.
	hdr [frameHeaderLen]byte
	buf []byte
	// dec is the decode paths' cache of texts seen before, and rec the
	// Record frames' borrowing record decoder.
	dec decodeCache
	rec mrt.Decoder
	// Hello is the server's greeting; Ack the subscription confirmation.
	Hello Hello
	Ack   Ack
}

// DialOptions tune a feed connection's failure detection.
type DialOptions struct {
	// HandshakeTimeout bounds the whole hello/subscribe/ack exchange, so
	// a server that accepts and then stalls cannot hang DialWith forever.
	// Default 10s; negative disables.
	HandshakeTimeout time.Duration
	// IdleTimeout bounds every wait on the connection after the
	// handshake: it is armed before each read that reaches the socket, so
	// frames already buffered are served without a deadline update, and
	// a connection silent for IdleTimeout fails the next read that needs
	// it. The server interleaves heartbeats into idle streams (at a default
	// 10s cadence), so any timeout comfortably above the server's
	// heartbeat interval only fires on a genuinely stalled connection.
	// Next surfaces it as ErrIdleTimeout. Default 0 (no deadline).
	IdleTimeout time.Duration
	// FromStart (with resumeFrom 0) subscribes from the oldest retained
	// event instead of "from now" (see Subscribe.FromStart).
	FromStart bool
}

func (o DialOptions) handshakeTimeout() time.Duration {
	if o.HandshakeTimeout == 0 {
		return 10 * time.Second
	}
	if o.HandshakeTimeout < 0 {
		return 0
	}
	return o.HandshakeTimeout
}

// DialWith connects to a feed server, performs the handshake, and
// subscribes. resumeFrom > 0 asks the server to replay retained events
// after that sequence number; the zero DialOptions take the defaults.
func DialWith(addr string, f Filter, policy Policy, resumeFrom uint64, opts DialOptions) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := newConn(nc, f, policy, resumeFrom, opts)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// idleReader arms the idle read deadline before every read that reaches
// the socket, once idle is set after the handshake. Frames served from
// the bufio buffer cost no clock read and no deadline update, and a read
// that waits on the socket never waits past the idle timeout.
type idleReader struct {
	conn net.Conn
	idle time.Duration
}

func (r *idleReader) Read(p []byte) (int, error) {
	if r.idle > 0 {
		r.conn.SetReadDeadline(time.Now().Add(r.idle))
	}
	return r.conn.Read(p)
}

func newConn(nc net.Conn, f Filter, policy Policy, resumeFrom uint64, opts DialOptions) (*Conn, error) {
	c := &Conn{conn: nc, rd: idleReader{conn: nc}, rec: mrt.Decoder{Borrow: true}}
	c.br = bufio.NewReader(&c.rd)
	if ht := opts.handshakeTimeout(); ht > 0 {
		nc.SetDeadline(time.Now().Add(ht))
		defer nc.SetDeadline(time.Time{})
	}
	if err := readFrameInto(c.br, FrameHello, &c.Hello); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	if c.Hello.Version != ProtocolVersion {
		return nil, fmt.Errorf("%w: server speaks version %d", ErrBadVersion, c.Hello.Version)
	}
	if err := WriteFrame(nc, FrameSubscribe, Subscribe{
		Filter:     f,
		Policy:     policy.String(),
		ResumeFrom: resumeFrom,
		FromStart:  opts.FromStart && resumeFrom == 0,
		Format:     FormatMRT,
	}); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	if err := readFrameInto(c.br, FrameAck, &c.Ack); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	c.rd.idle = opts.IdleTimeout
	return c, nil
}

// Next returns the next event from the stream. A server-sent error frame
// (e.g. a kick) is surfaced as an error; heartbeats are consumed
// silently. When a read from the connection waits past the idle timeout,
// Next returns ErrIdleTimeout.
func (c *Conn) Next() (Event, error) {
	for {
		t, payload, err := readFrame(c.br, &c.hdr, c.buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return Event{}, fmt.Errorf("%w after %v", ErrIdleTimeout, c.rd.idle)
			}
			return Event{}, err
		}
		c.buf = payload
		switch t {
		case FrameRecord:
			ev, err := decodeRecordFrame(payload, &c.rec, &c.dec)
			if err != nil {
				return Event{}, fmt.Errorf("%w: record payload: %v", ErrBadFrame, err)
			}
			return ev, nil
		case FrameEvent:
			if ev, ok := decodeEventFast(payload, &c.dec); ok {
				return ev, nil
			}
			var ev Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				return Event{}, fmt.Errorf("%w: event payload: %v", ErrBadFrame, err)
			}
			return ev, nil
		case FrameHeartbeat:
			continue // liveness only
		case FrameError:
			var ef ErrorFrame
			if json.Unmarshal(payload, &ef) == nil && ef.Message == ErrKicked.Error() {
				return Event{}, ErrKicked
			}
			return Event{}, fmt.Errorf("livefeed: server error: %s", ef.Message)
		default:
			return Event{}, fmt.Errorf("%w: unexpected %s frame in stream", ErrBadFrame, t)
		}
	}
}

// Close closes the connection.
func (c *Conn) Close() error { return c.conn.Close() }

// Client is a reconnecting feed consumer: it dials, subscribes, delivers
// events to OnEvent, and on any connection failure redials with
// exponential backoff, resuming from the last received sequence number so
// no retained event is delivered twice or silently skipped.
type Client struct {
	// Addr is the server address ("host:port").
	Addr string
	// Filter and Policy are the subscription parameters.
	Filter Filter
	Policy Policy
	// OnEvent is called for every received event, in stream order, from a
	// single goroutine.
	OnEvent func(Event)
	// OnConnect, if set, is called after each successful handshake with
	// the ack (Lost > 0 reveals a replay gap after a reconnect).
	OnConnect func(Ack)
	// MinBackoff / MaxBackoff bound the reconnect delay. Defaults
	// 100ms / 10s.
	MinBackoff, MaxBackoff time.Duration
	// HandshakeTimeout / IdleTimeout bound the handshake and each wait
	// on the connection (see DialOptions). A server that accepts and then
	// stalls mid-handshake or mid-stream is detected and redialed
	// through the same backoff/resume path as a dropped connection.
	// Defaults 10s / 30s; negative disables.
	HandshakeTimeout time.Duration
	IdleTimeout      time.Duration
	// FromStart subscribes from the oldest retained event rather than
	// "from now". It also closes a reconnect gap: without it, a client
	// whose every connection died before the first delivery would
	// resubscribe with resume_from 0 ("from now") and silently skip
	// everything published in between.
	FromStart bool

	lastSeq uint64
}

func (c *Client) minBackoff() time.Duration {
	if c.MinBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.MinBackoff
}

func (c *Client) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return 10 * time.Second
	}
	return c.MaxBackoff
}

func (c *Client) idleTimeout() time.Duration {
	if c.IdleTimeout == 0 {
		return 30 * time.Second
	}
	if c.IdleTimeout < 0 {
		return 0
	}
	return c.IdleTimeout
}

// LastSeq returns the sequence number of the last event delivered.
func (c *Client) LastSeq() uint64 { return c.lastSeq }

// Run connects and consumes the feed until ctx is done, reconnecting on
// failure. It returns ctx.Err() on cancellation, ErrKicked if the server
// kicked the subscription (reconnecting after a kick would kick again;
// callers must slow down first), or an error wrapping ErrServerRefused if
// the server refused the subscription for a reason no redial changes, such
// as an unknown channel or a block policy the server does not allow. A
// refusal that may clear (see retryableRefusal) is retried like a dropped
// connection.
func (c *Client) Run(ctx context.Context) error {
	backoff := c.minBackoff()
	for {
		err := c.runOnce(ctx)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case err == ErrKicked:
			return err
		case errors.Is(err, ErrServerRefused) && !retryableRefusal(err):
			return err
		case err == nil:
			backoff = c.minBackoff() // clean EOF after progress: retry soon
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > c.maxBackoff() {
			backoff = c.maxBackoff()
		}
	}
}

// retryableRefusal reports whether a server refusal may clear on a
// redial: the server's broker was closing (a daemon restart), or the server
// could not read the subscribe frame (a transport fault or a stalled
// handshake). Every other refusal names the subscription itself and
// refuses every redial alike.
func retryableRefusal(err error) bool {
	msg := err.Error()
	return strings.HasSuffix(msg, ErrBrokerClosed.Error()) || strings.Contains(msg, badSubscribe)
}

// runOnce runs one connection lifetime. nil means the connection ended
// after delivering at least one event (benign: server restart or rotate).
func (c *Client) runOnce(ctx context.Context) error {
	conn, err := DialWith(c.Addr, c.Filter, c.Policy, c.lastSeq, DialOptions{
		HandshakeTimeout: c.HandshakeTimeout,
		IdleTimeout:      c.idleTimeout(),
		FromStart:        c.FromStart,
	})
	if err != nil {
		return err
	}
	defer conn.Close()
	if c.OnConnect != nil {
		c.OnConnect(conn.Ack)
	}
	// Tie the connection to ctx so Run can be cancelled while blocked in
	// a read.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	delivered := false
	for {
		ev, err := conn.Next()
		if err != nil {
			if delivered && err != ErrKicked {
				return nil
			}
			return err
		}
		c.lastSeq = ev.Seq
		delivered = true
		if c.OnEvent != nil {
			c.OnEvent(ev)
		}
	}
}
