package livefeed

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zombiescope/internal/mrt"
	"zombiescope/internal/obs"
)

// Policy selects what happens when a subscriber's ring buffer is full at
// publish time — the knob that guarantees one slow client can never stall
// ingestion (drop-oldest, kick-slowest) unless explicitly asked to
// (block).
type Policy uint8

const (
	// PolicyDropOldest evicts the subscriber's oldest queued event to
	// make room; the subscriber keeps the freshest window (default).
	PolicyDropOldest Policy = iota
	// PolicyKickSlowest disconnects the subscriber on overflow: a full
	// buffer identifies it as the slowest consumer of its own stream.
	PolicyKickSlowest
	// PolicyBlock makes Publish wait for buffer space. It trades
	// ingestion liveness for losslessness; use only for trusted in-
	// process consumers (a stalled subscriber stalls the whole feed).
	PolicyBlock
)

func (p Policy) String() string {
	switch p {
	case PolicyDropOldest:
		return "drop-oldest"
	case PolicyKickSlowest:
		return "kick-slowest"
	case PolicyBlock:
		return "block"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy parses a policy name as carried in Subscribe frames; the
// empty string means drop-oldest.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "drop-oldest":
		return PolicyDropOldest, nil
	case "kick-slowest":
		return PolicyKickSlowest, nil
	case "block":
		return PolicyBlock, nil
	default:
		return 0, fmt.Errorf("livefeed: unknown backpressure policy %q", s)
	}
}

// Config parameterizes a Broker.
type Config struct {
	// RingSize is the per-subscriber buffer capacity (events). Default
	// 1024.
	RingSize int
	// ReplaySize is how many recent events the broker retains for
	// resume-from-sequence. Default 4096; 0 uses the default, negative
	// disables replay.
	ReplaySize int
	// Metrics is the instrument sink the broker accounts into. Nil means
	// a private Metrics on its own registry; pass NewMetrics(sharedReg)
	// to scrape the broker alongside other subsystems.
	Metrics *Metrics
	// Journal, when set, durably records every published event and backs
	// resume-from-sequence requests that fall off the in-memory replay
	// window. Append errors are counted (livefeed_journal_errors_total)
	// but never stall publishing. Append receives the broker's shared
	// encoding, so the journal never re-marshals an event.
	Journal Journal
	// StartSeq seeds the broker's sequence counter, so a broker recovered
	// from a journal continues numbering where the previous run stopped
	// instead of reissuing sequence numbers.
	StartSeq uint64
	// TraceSample selects 1/N published events for span tracing through
	// the installed obs tracer (publish plus every socket flush of the
	// event's frame). 0 disables sampling; with no tracer installed the
	// check costs one modulo on the publish path.
	TraceSample int
}

func (c Config) ringSize() int {
	if c.RingSize <= 0 {
		return 1024
	}
	return c.RingSize
}

func (c Config) replaySize() int {
	if c.ReplaySize == 0 {
		return 4096
	}
	if c.ReplaySize < 0 {
		return 0
	}
	return c.ReplaySize
}

// Broker assigns sequence numbers to published events, encodes each one
// exactly once into a shared wire frame, retains a bounded replay window
// of frames, and broadcasts frame references to every subscriber whose
// filter matches.
type Broker struct {
	cfg     Config
	metrics *Metrics

	// headSeq mirrors seq so lag math (scrape hooks, Sessions) reads the
	// stream head without taking the broker lock.
	headSeq   atomic.Uint64
	nextSubID atomic.Uint64

	mu     sync.Mutex
	seq    uint64
	closed bool

	// subs is every attached subscriber, in no particular order; each
	// one's idx is its position, so detaching is a swap-remove. Publish
	// checks every subscriber's filter: a filter check is a few slice
	// scans, cheaper than any index that would let Publish skip it.
	subs []*Subscriber

	// replay is a circular buffer of the most recent event frames, for
	// resume-from-sequence. replay[i] for i in [start, start+count); each
	// slot holds one frame reference.
	replay []*sharedFrame
	start  int
	count  int
}

// NewBroker builds a broker with the configured metrics sink (its own
// when Config.Metrics is nil).
func NewBroker(cfg Config) *Broker {
	m := cfg.Metrics
	if m == nil {
		m = NewMetrics(nil)
	}
	b := &Broker{cfg: cfg, metrics: m, seq: cfg.StartSeq}
	if n := cfg.replaySize(); n > 0 {
		b.replay = make([]*sharedFrame, n)
	}
	b.headSeq.Store(cfg.StartSeq)
	// Session lag/queue gauges and journal watermarks are refreshed at
	// scrape time, so the publish path carries none of their cost.
	m.reg.OnScrape(b.refreshScrapeGauges)
	return b
}

// refreshScrapeGauges recomputes the scrape-time views: journal
// watermarks and each attached subscriber's lag/queue gauges. Lag is the
// sequence distance between the stream head and the subscriber's last
// consumed event — the number every "is this client keeping up" question
// reduces to.
func (b *Broker) refreshScrapeGauges() {
	head := b.headSeq.Load()
	b.metrics.journalHead.Set(float64(head))
	if b.cfg.Journal != nil {
		b.metrics.journalFirst.Set(float64(b.cfg.Journal.FirstSeq()))
	}
	for _, s := range b.snapshotSubs() {
		s.mu.Lock()
		queued := s.n
		s.mu.Unlock()
		s.lagGauge.Set(float64(lag(head, s.lastSeq.Load())))
		s.queueGauge.Set(float64(queued))
	}
}

// lag is how far a subscriber that consumed last trails the stream head.
func lag(head, last uint64) uint64 { return head - min(head, last) }

// Metrics returns the broker's counters.
func (b *Broker) Metrics() *Metrics { return b.metrics }

// Seq returns the sequence number of the most recently published event.
func (b *Broker) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// SubscriberCount returns the number of attached subscribers.
func (b *Broker) SubscriberCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// snapshotSubs copies the subscriber list, so callers can visit each
// subscriber without holding the broker lock.
func (b *Broker) snapshotSubs() []*Subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*Subscriber(nil), b.subs...)
}

// Publish assigns the next sequence number to ev, encodes it exactly
// once into a shared wire frame, and broadcasts the frame to every
// matching subscriber, applying each subscriber's backpressure policy.
// It returns the assigned sequence number (0 when the broker is closed).
// The ingest stamp is taken here — callers that know when the event
// really entered the process use PublishAt.
func (b *Broker) Publish(ev Event) uint64 {
	return b.PublishAt(ev, obs.Nanos())
}

// PublishAt is Publish with an explicit ingest stamp (obs.Nanos at the
// collector/archive boundary), the anchor of the end-to-end latency
// histogram: the stamp rides the shared frame to every subscriber and is
// observed against the clock at socket-flush time.
func (b *Broker) PublishAt(ev Event, ingestNanos int64) uint64 {
	start := obs.Nanos()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0
	}
	b.seq++
	ev.Seq = b.seq

	// Span sampling: 1/TraceSample events carry a trace through publish
	// and every later flush of their frame. The unsampled path pays one
	// modulo; the no-tracer path additionally one atomic load.
	var span *obs.Span
	sampled := false
	if n := b.cfg.TraceSample; n > 0 && b.seq%uint64(n) == 0 {
		if span = obs.StartSpan("livefeed.event"); span != nil {
			sampled = true
			span.SetArg("seq", b.seq)
			span.SetArg("channel", ev.Channel)
		}
	}

	// Encode once. Every fan-out target below — journal, replay window,
	// subscriber rings, and ultimately the server's writev batches —
	// shares this frame's bytes.
	encSpan := span.Start("encode")
	f, encErr := newEventFrame(&ev)
	encSpan.End()
	if f != nil {
		f.ingest = ingestNanos
		f.sampled = sampled
	}
	if encErr != nil {
		// Only an event JSON cannot carry (a timestamp past year 9999)
		// gets here; counted and skipped rather than crashing the feed.
		// The sequence number stays consumed — subscribers tolerate gaps
		// exactly as they do for filtered events, and the journal keeps
		// the same gap.
		b.metrics.encodeErrors.Add(1)
	} else {
		b.metrics.encodes.Add(1)
	}

	if b.cfg.Journal != nil {
		jSpan := span.Start("journal")
		var payload []byte
		if f != nil {
			payload = f.payload()
		}
		jerr := b.cfg.Journal.Append(ev, payload)
		jSpan.End()
		if jerr != nil {
			b.metrics.journalErrors.Add(1)
		}
	}
	b.metrics.recordsIn.Add(1)
	if ev.Channel == ChannelZombie {
		b.metrics.alerts.Add(1)
	}
	if f != nil && len(b.replay) > 0 {
		if b.count == len(b.replay) {
			b.replay[b.start].release()
			b.replay[b.start] = nil
			b.start = (b.start + 1) % len(b.replay)
			b.count--
		}
		f.retain()
		b.replay[(b.start+b.count)%len(b.replay)] = f
		b.count++
	}

	fanSpan := span.Start("fanout")
	var kicked []*Subscriber
	var pushes int64
	if f != nil {
		for _, s := range b.subs {
			if s.catchingUp || !s.filter.Match(&ev) {
				continue
			}
			if s.push(f, b.metrics) {
				pushes++
			} else {
				kicked = append(kicked, s)
			}
		}
	}
	if pushes > 0 {
		b.metrics.eventsOut.Add(pushes)
		b.metrics.framesShared.Add(pushes)
	}
	for _, s := range kicked {
		b.removeLocked(s)
	}
	if f != nil {
		f.release() // the publisher's reference
	}
	seq := b.seq
	b.headSeq.Store(seq)
	b.mu.Unlock()
	fanSpan.End()
	if span != nil {
		span.SetArg("pushes", pushes)
		span.End()
	}
	b.metrics.publishSeconds.Observe(obs.SinceNanos(start))
	return seq
}

// PublishRecord converts a tapped collector record to an event carrying
// the raw MRT record, so subscribers can run byte-faithful pipelines
// (e.g. zombie.StreamDetector), and publishes it. RIB-dump records are
// not streamed (ok is false).
func (b *Broker) PublishRecord(collector string, rec mrt.Record) (seq uint64, ok bool) {
	return b.PublishRecordAt(collector, rec, obs.Nanos())
}

// PublishRecordAt is PublishRecord with an explicit ingest stamp (see
// PublishAt).
func (b *Broker) PublishRecordAt(collector string, rec mrt.Record, ingestNanos int64) (seq uint64, ok bool) {
	ev, ok := EventFromRecord(collector, rec, true)
	if !ok {
		return 0, false
	}
	return b.PublishAt(ev, ingestNanos), true
}

// Subscribe attaches a subscriber with the given filter and policy.
// resumeFrom > 0 asks for replay of retained events with sequence numbers
// strictly greater than resumeFrom; lost reports how many of those were
// no longer retained (neither in the replay ring nor, when the broker is
// journaled, in the journal). The catch-up is served lazily by Next, ahead
// of live events; a journal read failure during it surfaces as ErrJournal
// from Next.
func (b *Broker) Subscribe(f Filter, policy Policy, resumeFrom uint64) (sub *Subscriber, lost uint64, err error) {
	return b.SubscribeFrom(f, policy, resumeFrom, false)
}

// SubscribeFrom is Subscribe with an explicit start-of-stream option.
// resumeFrom 0 normally means "from now" — which leaves a consumer that
// lost its very first connection unable to ask for the events published
// in between (the chaos harness exposed exactly this gap). fromStart
// with resumeFrom 0 instead replays every retained event, reporting
// events no longer retained as lost. A filter naming an unknown channel
// or event type is refused with an error. The subscriber starts in
// catch-up, which the first refillLocked call made here sets up; Publish
// pushes nothing to it until it joins live delivery.
func (b *Broker) SubscribeFrom(f Filter, policy Policy, resumeFrom uint64, fromStart bool) (sub *Subscriber, lost uint64, err error) {
	if err := f.validate(); err != nil {
		return nil, 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, 0, ErrBrokerClosed
	}
	sub = newSubscriber(b, f, policy, b.cfg.ringSize())
	next := b.seq + 1
	if resumeFrom > 0 && resumeFrom < b.seq {
		next = resumeFrom + 1
	} else if fromStart && resumeFrom == 0 {
		next = 1
	}
	// Seed the lag baseline: a resuming subscriber lags by its catch-up
	// distance at first, a fresh one starts at the head.
	sub.lastSeq.Store(next - 1)
	sub.subscribeHead = b.seq
	sub.catchingUp = true
	sub.backlog = &backfill{next: next}
	lost = b.refillLocked(sub, true)
	sub.idx = len(b.subs)
	b.subs = append(b.subs, sub)
	b.metrics.subscribers.Add(1)
	b.metrics.subscribersTotal.Add(1)
	return sub, lost, nil
}

// refillLocked extends the drained backlog of catching-up s from bl.next,
// the first sequence not yet served, with one source per range; b.mu must
// be held.
//
//   - At subscribe only, bl.next is clamped to the oldest sequence a
//     source holds (the journal's, else the replay window's); lost counts
//     the difference. A later journal range is read unclamped, so
//     retention that overtakes the catch-up ends it with ErrJournal.
//   - Below the window: the journal serves [bl.next, windowStart-1],
//     read outside every lock, then the backlog refills.
//   - Inside the window: the matching window frames are retained. Without
//     a journal the window is their only copy, so s joins live delivery in
//     this same lock section, and block policy stays lossless; with one, s
//     stays in catch-up and refills once they are served.
//   - Above the head: s joins live delivery. Deciding that under the lock
//     Publish takes is what makes the join miss and repeat nothing; the
//     consumer then serves what is left without taking it.
func (b *Broker) refillLocked(s *Subscriber, subscribing bool) (lost uint64) {
	bl, head, j := s.backlog, b.seq, b.cfg.Journal
	if bl.next <= head {
		windowStart := head + 1 - uint64(b.count)
		if subscribing {
			first := windowStart
			if j != nil {
				if jf := j.FirstSeq(); jf != 0 && jf < first {
					first = jf
				}
			}
			if bl.next < first {
				lost, bl.next = first-bl.next, first
			}
		}
		if bl.next < windowStart {
			bl.journalEnd = windowStart - 1
			return lost
		}
		// Slot i holds a sequence <= windowStart+i: the wanted ones start here.
		bl.ring, bl.ringPos = bl.ring[:0], 0
		for i := int(bl.next - windowStart); i < b.count; i++ {
			fr := b.replay[(b.start+i)%len(b.replay)]
			if fr.ev.Seq >= bl.next && s.filter.Match(&fr.ev) {
				fr.retain()
				bl.ring = append(bl.ring, fr)
			}
		}
		bl.next = head + 1
		if j != nil {
			return lost
		}
	}
	s.catchingUp, s.catchUpSeq, bl.live = false, head, true
	return lost
}

// removeLocked detaches a subscriber from the list by moving the last
// subscriber into its slot. A subscriber already detached is left alone.
func (b *Broker) removeLocked(s *Subscriber) {
	i := s.idx
	if i >= len(b.subs) || b.subs[i] != s {
		return
	}
	last := len(b.subs) - 1
	b.subs[i] = b.subs[last]
	b.subs[i].idx = i
	b.subs[last] = nil
	b.subs = b.subs[:last]
	b.metrics.subscribers.Add(-1)
	b.metrics.subLag.Delete(s.idStr)
	b.metrics.subQueue.Delete(s.idStr)
}

// remove detaches a subscriber (called from Subscriber.Close, never while
// holding the subscriber's lock).
func (b *Broker) remove(s *Subscriber) {
	b.mu.Lock()
	b.removeLocked(s)
	b.mu.Unlock()
}

// Close shuts the broker down and closes every subscriber.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	b.subs = nil
	b.metrics.subscribers.Add(-float64(len(subs)))
	for _, s := range subs {
		b.metrics.subLag.Delete(s.idStr)
		b.metrics.subQueue.Delete(s.idStr)
	}
	// Release the replay window's frame references; subscribers still
	// drain whatever sits in their own rings (each slot holds its own
	// reference).
	for i := 0; i < b.count; i++ {
		idx := (b.start + i) % len(b.replay)
		b.replay[idx].release()
		b.replay[idx] = nil
	}
	b.count = 0
	b.mu.Unlock()
	for _, s := range subs {
		s.markClosed(ErrBrokerClosed)
	}
}

// Subscriber is one attached feed consumer: a bounded ring of pending
// event frames plus the policy applied when the ring is full. Each ring
// slot holds one reference on its frame; dequeuing transfers that
// reference to the consumer (Next releases it after copying the event
// out, NextFrameTimeout hands it to the caller).
type Subscriber struct {
	b      *Broker
	filter Filter
	policy Policy
	idx    int // position in the broker's subscriber list; broker-lock protected

	// Session identity and telemetry. The atomics are written on the
	// consumer's dequeue path and on block-policy stalls, and read by the
	// scrape hook and Sessions without any lock. lagGauge/queueGauge are
	// the pre-resolved per-session children of the metrics vecs, deleted
	// when the subscriber detaches.
	id         uint64
	idStr      string
	since      int64 // obs.Nanos at subscribe
	lastSeq    atomic.Uint64
	delivered  atomic.Uint64
	bytes      atomic.Uint64
	stallNanos atomic.Int64
	lagGauge   *obs.Gauge
	queueGauge *obs.Gauge

	// catchingUp marks a subscriber served by its backlog, which Publish
	// skips. Broker-lock protected.
	catchingUp bool

	// subscribeHead is the broker head SubscribeFrom subscribed at, which
	// the server acks. Written once before the subscriber is returned.
	subscribeHead uint64

	// backlog is the catch-up Next serves before live events, refilled
	// each time it runs dry; nil once served after the join. Touched only
	// by SubscribeFrom and then the consumer goroutine.
	backlog *backfill

	// catchUpSeq is the broker head at which the subscriber joined live
	// delivery. Frames at or below it are catch-up: their ingest stamps
	// are historical, so the server excludes them from the end-to-end
	// latency histogram — a reconnecting client must not spike e2e p999
	// with its own catch-up distance. Written, like backlog, by
	// refillLocked when the subscriber joins.
	catchUpSeq uint64

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []*sharedFrame // fixed-capacity ring; buf[(head+i)%cap] for i<n
	head   int
	n      int
	closed bool
	reason error
	drops  uint64
}

// backfillBatch bounds how many journal sequences one Next pulls at a
// time: large enough to amortise the span-index lookup, small enough to
// keep memory flat while catching up over a month-scale journal.
const backfillBatch = 512

// backfill is a catching-up subscriber's backlog: a journal range, else
// the matching replay-window frames refillLocked retained (one reference
// each). Consumer-goroutine only; no lock needed. Journal events are
// re-encoded into private frames on dequeue — the filter applied inside
// the Replay callback is the post-filter that keeps a resuming
// subscriber's view correct without the broker walking its filter at
// publish time.
type backfill struct {
	next       uint64 // first sequence not yet taken into the backlog
	journalEnd uint64 // the journal serves [next, journalEnd]
	live       bool   // s has joined live delivery: nothing more is refilled
	batch      []Event
	batchPos   int
	ring       []*sharedFrame
	ringPos    int
}

// backfillNext serves the next catch-up frame: the journal range in
// batches read outside every lock, then the retained window frames, then
// (in catch-up only) a refill under the broker lock. ok is false once s has
// joined live delivery and its backlog is served, or is closed; the
// caller falls through to the live ring and its close reason. The
// returned frame's reference is owned by the caller. A journal read error
// closes the subscriber with ErrJournal: a journal that cannot be read
// must not become a silent gap in a stream the client asked to resume.
func (s *Subscriber) backfillNext() (f *sharedFrame, ok bool) {
	bl := s.backlog
	if bl == nil {
		return nil, false
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed { // abandon the catch-up
		for _, f := range bl.ring[bl.ringPos:] {
			f.release()
		}
		s.backlog = nil
		return nil, false
	}
	b := s.b
	for f == nil {
		switch {
		case bl.batchPos < len(bl.batch):
			ev := &bl.batch[bl.batchPos]
			bl.batchPos++
			// Journal catch-up events are encoded on dequeue into private
			// frames (refs=1, owned by the caller): the resume path is the
			// one place re-encoding still happens, and it is metered.
			var err error
			if f, err = newEventFrame(ev); err != nil {
				b.metrics.encodeErrors.Add(1) // skipped, as Publish would
			} else {
				b.metrics.encodes.Add(1)
			}
			*ev = Event{} // release references
		case bl.next <= bl.journalEnd:
			// A failed append is a gap Replay skips, as it skips an
			// unencodable event. A journal that took no sequence number
			// for an append ends short of the range; the part it lacks
			// ends the catch-up with an error, not as an empty stretch.
			j := b.cfg.Journal
			to := min(bl.next-1+backfillBatch, bl.journalEnd, j.LastSeq())
			bl.batch, bl.batchPos = bl.batch[:0], 0
			err := j.Replay(bl.next-1, to, func(ev Event) error {
				if s.filter.Match(&ev) {
					bl.batch = append(bl.batch, ev)
				}
				return nil
			})
			if err == nil && to < bl.next {
				err = fmt.Errorf("journal ends at seq %d", to)
			}
			if err != nil {
				b.metrics.journalErrors.Add(1)
				s.backlog = nil
				s.markClosed(fmt.Errorf("%w: %v", ErrJournal, err))
				b.remove(s)
				return nil, false
			}
			bl.next = to + 1
		case bl.ringPos < len(bl.ring):
			f = bl.ring[bl.ringPos]
			bl.ring[bl.ringPos] = nil // reference transfers to the caller
			bl.ringPos++
		case bl.live:
			// Served and live: a publisher may be waiting on s's full ring
			// under the broker lock, so the backlog is dropped without it.
			s.backlog = nil
			return nil, false
		default:
			// Drained in catch-up, which Publish never waits on. A refill
			// after a broker Close serves at most the journal to the head.
			b.mu.Lock()
			b.refillLocked(s, false)
			b.mu.Unlock()
		}
	}
	b.metrics.eventsOut.Add(1)
	s.noteDelivered(f)
	return f, true
}

func newSubscriber(b *Broker, f Filter, policy Policy, ringSize int) *Subscriber {
	s := &Subscriber{b: b, filter: f, policy: policy, buf: make([]*sharedFrame, ringSize)}
	s.cond = sync.NewCond(&s.mu)
	s.id = b.nextSubID.Add(1)
	s.idStr = strconv.FormatUint(s.id, 10)
	s.since = obs.Nanos()
	s.lagGauge = b.metrics.subLag.With(s.idStr)
	s.queueGauge = b.metrics.subQueue.With(s.idStr)
	return s
}

// ID returns the session id, unique per broker lifetime — the value of
// the id label on this subscriber's lag/queue gauges.
func (s *Subscriber) ID() uint64 { return s.id }

// Policy returns the subscriber's backpressure policy.
func (s *Subscriber) Policy() Policy { return s.policy }

// push enqueues one frame under the subscriber's policy, taking a new
// reference on success. It returns false when the subscriber was kicked
// (caller must detach it). Called with the broker lock held; only the
// subscriber lock is taken here.
func (s *Subscriber) push(f *sharedFrame, m *Metrics) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return true // already detached elsewhere; nothing to do
	}
	if s.n == len(s.buf) {
		switch s.policy {
		case PolicyDropOldest:
			evicted := s.buf[s.head]
			s.buf[s.head] = nil
			evicted.release()
			s.head = (s.head + 1) % len(s.buf)
			s.n--
			s.drops++
			m.dropsDropOldest.Add(1)
		case PolicyKickSlowest:
			m.kicks.Add(1)
			s.closed = true
			s.reason = ErrKicked
			s.cond.Broadcast()
			return false
		case PolicyBlock:
			m.blockStalls.Add(1)
			stallStart := obs.CoarseNanos()
			for s.n == len(s.buf) && !s.closed {
				s.cond.Wait()
			}
			s.stallNanos.Add(obs.CoarseNanos() - stallStart)
			if s.closed {
				return true
			}
		}
	}
	f.retain()
	s.buf[(s.head+s.n)%len(s.buf)] = f
	s.n++
	s.cond.Signal()
	return true
}

// Next blocks until an event is available and returns it. Resume
// catch-up (journal + retained frames) is served first, then live
// events. It returns ErrKicked if the subscriber was disconnected for
// being too slow, ErrJournal if the resume gap could not be read back,
// or ErrClosed/ErrBrokerClosed after Close.
func (s *Subscriber) Next() (Event, error) {
	f, err := s.next(0)
	if err != nil {
		return Event{}, err
	}
	ev := f.ev
	f.release()
	return ev, nil
}

// errIdle reports an expired NextFrameTimeout wait; the subscriber is
// intact.
var errIdle = fmt.Errorf("livefeed: no event within the wait")

// NextFrameTimeout is the zero-copy Next: it returns the next event in
// encoded wire form, and the caller owns the frame's reference and must
// Release it once the bytes have been consumed. A positive d bounds the
// wait: if no event arrives within d it returns errIdle while the
// subscription stays attached, which the server's heartbeat loop uses to
// interleave keepalives into idle streams. d <= 0 waits without bound.
func (s *Subscriber) NextFrameTimeout(d time.Duration) (Frame, error) {
	f, err := s.next(d)
	return Frame{f: f}, err
}

// TryNextFrame returns the next frame only if one is available without
// blocking: backlog first, then whatever the live ring holds right now.
// The server's writev batching uses it to gather consecutive frames. ok
// reports whether a frame was returned; errors (journal failure, close)
// are left for the next blocking call to surface, so a partially
// gathered batch is still written.
func (s *Subscriber) TryNextFrame() (Frame, bool) {
	if f, ok := s.backfillNext(); ok {
		return Frame{f: f}, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Frame{}, false
	}
	return Frame{f: s.popLocked()}, true
}

// next is the one blocking dequeue: resume catch-up first, then the live
// ring, waiting at most d when d is positive. The dequeued frame's
// reference transfers to the caller.
func (s *Subscriber) next(d time.Duration) (*sharedFrame, error) {
	if f, ok := s.backfillNext(); ok {
		return f, nil
	}
	var deadline time.Time
	if d > 0 {
		// A sleeping cond.Wait cannot be timed out directly; an AfterFunc
		// broadcast wakes every waiter, and the deadline check below turns
		// the spurious wakeup into errIdle for this caller only. The
		// deadline is taken before the timer is armed, so the timer never
		// fires ahead of it, and the broadcast holds the lock, so it
		// cannot land between the deadline check and the Wait — either
		// would leave the caller asleep until the next publish.
		deadline = time.Now().Add(d)
		timer := time.AfterFunc(d, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer timer.Stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 && !s.closed {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, errIdle
		}
		s.cond.Wait()
	}
	if s.n == 0 {
		reason := s.reason
		if reason == nil {
			reason = ErrClosed
		}
		return nil, reason
	}
	return s.popLocked(), nil
}

// popLocked dequeues the head of the non-empty live ring; the slot's
// reference transfers to the caller. s.mu must be held.
func (s *Subscriber) popLocked() *sharedFrame {
	f := s.buf[s.head]
	s.buf[s.head] = nil
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	s.cond.Signal() // wake a blocked publisher
	s.noteDelivered(f)
	return f
}

// noteDelivered advances the session's consumption telemetry on every
// dequeue (backfill and live): the lag baseline and delivered count the
// scrape hook and Sessions read.
func (s *Subscriber) noteDelivered(f *sharedFrame) {
	if seq := f.ev.Seq; seq > s.lastSeq.Load() {
		s.lastSeq.Store(seq)
	}
	s.delivered.Add(1)
}

// Len returns how many events are queued.
func (s *Subscriber) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Cap returns the ring capacity.
func (s *Subscriber) Cap() int { return len(s.buf) }

// Drops returns how many events this subscriber lost to drop-oldest.
func (s *Subscriber) Drops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// Close detaches the subscriber: no further events are queued, a blocked
// Next wakes, and once the remaining buffered events are drained Next
// returns ErrClosed. Safe to call concurrently and repeatedly.
func (s *Subscriber) Close() {
	if !s.markClosed(ErrClosed) {
		return
	}
	s.b.remove(s)
}

// SessionInfo is a point-in-time view of one attached subscriber's
// session — the /statusz row zombietop renders. Lag is sequence distance
// to the broker head; Bytes counts wire bytes the server flushed to this
// session's connection (0 for in-process subscribers that never cross a
// socket); StallSeconds is publish time spent blocked on this
// subscriber's full ring (block policy only).
type SessionInfo struct {
	ID            uint64  `json:"id"`
	Policy        string  `json:"policy"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Queue         int     `json:"queue"`
	Cap           int     `json:"cap"`
	LastSeq       uint64  `json:"last_seq"`
	Lag           uint64  `json:"lag"`
	Delivered     uint64  `json:"delivered"`
	Bytes         uint64  `json:"bytes"`
	Drops         uint64  `json:"drops"`
	StallSeconds  float64 `json:"stall_seconds"`
}

// Sessions snapshots every attached subscriber's session telemetry,
// sorted by session id.
func (b *Broker) Sessions() []SessionInfo {
	head := b.headSeq.Load()
	subs := b.snapshotSubs()
	out := make([]SessionInfo, 0, len(subs))
	for _, s := range subs {
		s.mu.Lock()
		queued, drops := s.n, s.drops
		s.mu.Unlock()
		last := s.lastSeq.Load()
		out = append(out, SessionInfo{
			ID:            s.id,
			Policy:        s.policy.String(),
			UptimeSeconds: obs.SinceNanos(s.since),
			Queue:         queued,
			Cap:           len(s.buf),
			LastSeq:       last,
			Lag:           lag(head, last),
			Delivered:     s.delivered.Load(),
			Bytes:         s.bytes.Load(),
			Drops:         drops,
			StallSeconds:  float64(s.stallNanos.Load()) / 1e9,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// markClosed flips the closed flag; it never takes the broker lock, so it
// is safe both from Publish (broker lock held) and from user code.
func (s *Subscriber) markClosed(reason error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	s.reason = reason
	s.cond.Broadcast()
	return true
}
