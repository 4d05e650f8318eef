package livefeed

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"zombiescope/internal/obs"
)

// Server serves a Broker's feed over TCP using the frame protocol.
// Each accepted connection performs the hello/subscribe/ack handshake and
// then receives a stream of Event frames; the subscriber's backpressure
// policy is chosen by the client (subject to AllowBlock).
//
// The event path is zero-copy: the write loop dequeues encoded frames
// (Subscriber.NextFrameTimeout) and hands their shared buffers straight
// to the kernel via net.Buffers — on a TCP connection consecutive frames
// go out in one writev call. Events are never re-marshalled per connection.
type Server struct {
	Broker *Broker
	// Name is reported in the Hello frame (e.g. "zombied/1").
	Name string
	// WriteTimeout bounds every frame write to a subscriber, so a peer
	// that stops reading (with full kernel buffers) cannot pin a handler
	// goroutine forever. Default 30s; negative disables.
	WriteTimeout time.Duration
	// HeartbeatInterval is how long a stream may stay idle before the
	// server interleaves a Heartbeat frame, letting clients with a read
	// deadline tell a quiet feed from a stalled connection. Default 10s;
	// negative disables.
	HeartbeatInterval time.Duration
	// AllowBlock permits clients to request the block policy. Off by
	// default: a remote subscriber that stalls under block would stall
	// ingestion for everyone.
	AllowBlock bool
	// WriteBatch caps how many queued frames one writev gathers. Default
	// 64; larger batches amortise syscalls under bursts at the cost of
	// holding more frame references per connection while the write is in
	// flight.
	WriteBatch int
	// Log, when set, receives per-connection lifecycle errors (failed
	// handshakes, write errors, kicks). Pass an obs.Throttled logger: a
	// reconnect storm produces these messages at connection rate, and the
	// server never rate-limits them itself.
	Log *slog.Logger

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers sync.WaitGroup
}

// handshakeTimeout bounds the wait for a client's Subscribe frame.
const handshakeTimeout = 10 * time.Second

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout == 0 {
		return 30 * time.Second
	}
	if s.WriteTimeout < 0 {
		return 0
	}
	return s.WriteTimeout
}

func (s *Server) heartbeatInterval() time.Duration {
	if s.HeartbeatInterval == 0 {
		return 10 * time.Second
	}
	if s.HeartbeatInterval < 0 {
		return 0
	}
	return s.HeartbeatInterval
}

func (s *Server) writeBatch() int {
	if s.WriteBatch <= 0 {
		return 64
	}
	return s.WriteBatch
}

// logConn reports a per-connection error on the configured logger; a nil
// Log drops it (the counters still account the failure).
func (s *Server) logConn(msg string, conn net.Conn, err error) {
	if s.Log == nil || err == nil {
		return
	}
	s.Log.Warn(msg, "remote", conn.RemoteAddr().String(), "err", err.Error())
}

// Serve accepts connections on l until the listener fails or Close is
// called. It always returns a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		// The closed check and the WaitGroup add share the mutex with
		// Shutdown, so a conn either registers before Shutdown starts
		// waiting or is refused.
		if !s.track(conn) {
			conn.Close()
			return net.ErrClosed
		}
		go s.handle(conn)
	}
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Close stops accepting and closes every active connection.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Shutdown stops accepting and then waits up to grace for the handler
// goroutines to drain: a handler keeps writing until its subscriber's
// buffered events are flushed (close the broker first so subscribers
// stop filling). Connections still open after grace are closed
// forcibly. Sequences already queued to a subscriber are therefore
// never dropped by an orderly daemon exit, only by an expired grace.
func (s *Server) Shutdown(grace time.Duration) {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(grace):
		s.mu.Lock()
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		<-drained
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.handlers.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.handlers.Done()
	s.mu.Unlock()
}

func (s *Server) handle(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()

	// armWrite bounds the next write batch so a peer that stops reading
	// cannot pin this goroutine once its kernel buffers fill.
	armWrite := func() {
		if wt := s.writeTimeout(); wt > 0 {
			conn.SetWriteDeadline(time.Now().Add(wt))
		}
	}

	// Handshake and control frames are rare and tiny; they use the
	// encode-per-write path (WriteFrame) directly against the conn.
	armWrite()
	if err := WriteFrame(conn, FrameHello, Hello{
		Version: ProtocolVersion,
		Server:  s.Name,
		Head:    s.Broker.Seq(),
	}); err != nil {
		return
	}

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var req Subscribe
	if err := readFrameInto(conn, FrameSubscribe, &req); err != nil {
		s.logConn("livefeed handshake failed", conn, err)
		refuse(conn, badSubscribe+err.Error())
		return
	}
	conn.SetReadDeadline(time.Time{})

	policy, err := ParsePolicy(req.Policy)
	if err != nil {
		s.logConn("livefeed subscribe refused", conn, err)
		refuse(conn, err.Error())
		return
	}
	if policy == PolicyBlock && !s.AllowBlock {
		s.logConn("livefeed subscribe refused", conn, errors.New("block policy not allowed"))
		refuse(conn, "block policy not allowed on this server")
		return
	}
	sub, lost, err := s.Broker.SubscribeFrom(req.Filter, policy, req.ResumeFrom, req.FromStart)
	if err != nil {
		s.logConn("livefeed subscribe refused", conn, err)
		refuse(conn, err.Error())
		return
	}
	defer sub.Close()

	armWrite()
	if err := WriteFrame(conn, FrameAck, Ack{Head: sub.subscribeHead, Lost: lost}); err != nil {
		return
	}

	// Reader side: the client sends nothing after Subscribe; a read
	// returning means the connection is gone, so unblock the writer.
	go func() {
		io.Copy(io.Discard, conn)
		sub.Close()
	}()

	// Write loop: block for one frame, then gather everything else the
	// ring already holds (up to WriteBatch) and hand the shared buffers
	// to the kernel in a single writev. Frame references are held until
	// the batch is fully written, then released — win or lose — so a
	// failed write can never leak a frame back to the pool early.
	hb := s.heartbeatInterval()
	maxBatch := s.writeBatch()
	m := s.Broker.metrics
	frames := make([]Frame, 0, maxBatch)
	bufs := make(net.Buffers, 0, maxBatch)
	for {
		fr, err := sub.NextFrameTimeout(hb)
		if err != nil {
			if errors.Is(err, errIdle) {
				// Idle stream: prove liveness so clients with a read
				// deadline don't mistake quiet for stalled.
				armWrite()
				if werr := WriteFrame(conn, FrameHeartbeat, Heartbeat{Head: s.Broker.Seq()}); werr != nil {
					s.logConn("livefeed heartbeat write failed", conn, werr)
					return
				}
				continue
			}
			if errors.Is(err, ErrKicked) || errors.Is(err, ErrJournal) {
				// Best effort: tell the client why before closing.
				s.logConn("livefeed subscriber closed", conn, err)
				armWrite()
				WriteFrame(conn, FrameError, ErrorFrame{Message: err.Error()})
			}
			return
		}
		frames = append(frames[:0], fr)
		bufs = append(bufs[:0], fr.Wire())
		for len(frames) < maxBatch {
			more, ok := sub.TryNextFrame()
			if !ok {
				break
			}
			frames = append(frames, more)
			bufs = append(bufs, more.Wire())
		}
		// A batch containing a sampled frame gets a flush span, tying the
		// socket stage into the event's 1/N trace.
		var flushSpan *obs.Span
		for i := range frames {
			if frames[i].f.sampled {
				if flushSpan = obs.StartSpan("livefeed.flush"); flushSpan != nil {
					flushSpan.SetArg("seq", frames[i].Seq())
					flushSpan.SetArg("frames", len(frames))
				}
				break
			}
		}
		armWrite()
		// net.Buffers.WriteTo is writev on a *net.TCPConn and a plain
		// per-slice Write loop on wrapped conns; either way the shared
		// frame bytes go out without a copy into any intermediate buffer.
		flushStart := obs.Nanos()
		n, werr := bufs.WriteTo(conn)
		flushSpan.End()
		m.stageFlush.Observe(obs.SinceNanos(flushStart))
		if n > 0 {
			m.bytesWritten.Add(n)
			sub.bytes.Add(uint64(n))
		}
		for i := range frames {
			// End-to-end latency closes here, at the kernel handoff; only
			// frames that actually went out and carry an ingest stamp are
			// observed. Catch-up is excluded twice over: journal backfill
			// frames are re-encoded without a stamp, and window-snapshot
			// frames keep their historical stamp but sit at or below the
			// head the subscriber joined live delivery at.
			if ing := frames[i].f.ingest; werr == nil && ing > 0 && frames[i].f.ev.Seq > sub.catchUpSeq {
				m.e2eSeconds.Observe(obs.SinceNanos(ing))
			}
			frames[i].Release()
			frames[i] = Frame{}
		}
		if werr != nil {
			s.logConn("livefeed subscriber write failed", conn, werr)
			return
		}
	}
}

// badSubscribe opens the refusal of a subscribe frame the server could
// not read; clients retry it (see retryableRefusal).
const badSubscribe = "bad subscribe: "

func refuse(w io.Writer, msg string) {
	WriteFrame(w, FrameError, ErrorFrame{Message: msg})
}
