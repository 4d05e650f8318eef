package livefeed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zombiescope/internal/eventstore"
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
	// encoding of an event without a record, so the journal never
	// re-marshals an event, and an event with a record is journaled as
	// that record.
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

// Broker assigns sequence numbers to published events, encodes each one at
// most once per frame format into a shared wire frame, retains a bounded
// replay window of frames, and broadcasts frame references to every
// subscriber whose filter matches.
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

	// enc is the encode cache of every Event frame built under mu.
	enc encodeCache
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

	// Encode once per format. Every fan-out target below — journal,
	// replay window, subscriber rings, and ultimately the server's writev
	// batches — shares this frame's bytes. An event with a record is
	// journaled as that record and its wire forms are built in the
	// fan-out, each only if a subscriber takes it; any other event's Event
	// frame is built now, for the journal and for both formats.
	encSpan := span.Start("encode")
	f := newFrame()
	f.ev = ev
	if !ev.hasRecord() {
		if f.encodeJSON(&b.enc) != nil {
			// Only an event JSON cannot carry (a timestamp past year 9999)
			// gets here; counted and skipped rather than crashing the feed.
			// The sequence number stays consumed — subscribers tolerate
			// gaps exactly as they do for filtered events, and the journal
			// keeps the same gap.
			b.metrics.encodeErrors.Add(1)
			f.release()
			f = nil
		} else {
			b.metrics.encodeJSON.Add(1)
		}
	}
	encSpan.End()
	if f != nil {
		f.ingest = ingestNanos
		f.sampled = sampled
	}

	if b.cfg.Journal != nil {
		jSpan := span.Start("journal")
		var payload []byte
		if f != nil && !ev.hasRecord() {
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
			if s.catchingUp || !s.filter.Match(&ev) || !b.buildLocked(f, s.mrt) {
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

// buildLocked makes sure f holds the wire form a subscriber taking Record
// frames (mrt) or Event frames dequeues, building it on first use; b.mu
// must be held. false means the event cannot be encoded in that form: the
// encode error is counted and the subscriber skips the event, as every
// subscriber skips an event Publish could not encode.
func (b *Broker) buildLocked(f *sharedFrame, mrt bool) bool {
	switch {
	case mrt && f.ev.hasRecord():
		if len(f.rec) == 0 {
			f.encodeRecord()
			b.metrics.encodeMRT.Add(1)
		}
	case len(f.wire) == 0:
		if f.encodeJSON(&b.enc) != nil {
			b.metrics.encodeErrors.Add(1)
			return false
		}
		b.metrics.encodeJSON.Add(1)
	}
	return true
}

// PublishRecord converts a collector record to an event carrying
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
// events no longer retained as lost. The subscriber takes Event frames.
func (b *Broker) SubscribeFrom(f Filter, policy Policy, resumeFrom uint64, fromStart bool) (sub *Subscriber, lost uint64, err error) {
	return b.SubscribeFormat(f, policy, FormatJSON, resumeFrom, fromStart)
}

// SubscribeFormat is SubscribeFrom for a subscriber taking the given frame
// format (see Subscribe.Format), the request a Subscribe frame makes. A
// filter naming an unknown channel or event type, or an unknown format, is
// refused with an error. The subscriber starts in catch-up, which the
// first refillLocked call made here sets up; Publish pushes nothing to it
// until it joins live delivery.
func (b *Broker) SubscribeFormat(f Filter, policy Policy, format string, resumeFrom uint64, fromStart bool) (sub *Subscriber, lost uint64, err error) {
	if err := f.validate(); err != nil {
		return nil, 0, err
	}
	var mrt bool
	switch format {
	case "", FormatJSON:
	case FormatMRT:
		mrt = true
	default:
		return nil, 0, fmt.Errorf("livefeed: unknown frame format %q", format)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, 0, ErrBrokerClosed
	}
	sub = newSubscriber(b, f, policy, b.cfg.ringSize())
	sub.mrt = mrt
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
//   - Inside the window: the matching window frames are retained, each
//     with the wire form s takes built if no one built it yet. Without
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
		bl.frames, bl.pos = bl.frames[:0], 0
		for i := int(bl.next - windowStart); i < b.count; i++ {
			fr := b.replay[(b.start+i)%len(b.replay)]
			if fr.ev.Seq >= bl.next && s.filter.Match(&fr.ev) && b.buildLocked(fr, s.mrt) {
				fr.retain()
				bl.frames = append(bl.frames, fr)
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

	// mrt marks a subscriber taking Record frames for events with a
	// record. Written once before the subscriber is returned.
	mrt bool

	// subscribeHead is the broker head SubscribeFormat subscribed at, which
	// the server acks. Written once before the subscriber is returned.
	subscribeHead uint64

	// backlog is the catch-up Next serves before live events, refilled
	// each time it runs dry; nil once served after the join. Touched only
	// by SubscribeFormat and then the consumer goroutine.
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

// backfill is a catching-up subscriber's backlog: the frames of one
// journal batch, else the matching replay-window frames refillLocked
// retained, one reference each. Consumer-goroutine only; no lock needed.
// Journal events become private frames as each batch is read, in the
// subscriber's format; the filter applied there is the post-filter that
// keeps a resuming subscriber's view correct without the broker walking
// its filter at publish time.
type backfill struct {
	next       uint64 // first sequence not yet taken into the backlog
	journalEnd uint64 // the journal serves [next, journalEnd]
	live       bool   // s has joined live delivery: nothing more is refilled
	frames     []*sharedFrame
	pos        int         // frames[pos:] are not served yet
	codec      *eventCodec // made when the first record is read into an Event frame
}

// eventCodec turns journaled records into Event frames: a borrowing
// decoder (EventFromRecord copies what it keeps) and an encode cache.
type eventCodec struct {
	dec mrt.Decoder
	enc encodeCache
}

// drop releases the frames not served yet.
func (bl *backfill) drop() {
	for _, f := range bl.frames[bl.pos:] {
		f.release()
	}
	bl.frames, bl.pos = bl.frames[:0], 0
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
		bl.drop()
		s.backlog = nil
		return nil, false
	}
	b := s.b
	for f == nil {
		switch {
		case bl.pos < len(bl.frames):
			f = bl.frames[bl.pos]
			bl.frames[bl.pos] = nil // reference transfers to the caller
			bl.pos++
		case bl.next <= bl.journalEnd:
			if err := s.readJournal(bl); err != nil {
				b.metrics.journalErrors.Add(1)
				bl.drop()
				s.backlog = nil
				s.markClosed(fmt.Errorf("%w: %v", ErrJournal, err))
				b.remove(s)
				return nil, false
			}
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

// readJournal turns the next batch of the journal range into bl's frames,
// outside every lock. A failed append is a gap the batch skips, as it
// skips an unencodable event. A journal that took no sequence number for
// an append ends short of the range; the part it lacks ends the catch-up
// with an error, not as an empty stretch.
func (s *Subscriber) readJournal(bl *backfill) error {
	j := s.b.cfg.Journal
	to := min(bl.next-1+backfillBatch, bl.journalEnd, j.LastSeq())
	bl.frames, bl.pos = bl.frames[:0], 0
	err := j.Replay(bl.next-1, to, func(se eventstore.Event) error {
		f, err := s.journalFrame(&se, bl)
		if f != nil {
			bl.frames = append(bl.frames, f)
		}
		return err
	})
	if err == nil && to < bl.next {
		err = fmt.Errorf("journal ends at seq %d", to)
	}
	bl.next = to + 1
	return err
}

// journalFrame builds the catch-up frame of one journaled event in s's
// format, owned by the caller, or returns nil for a gap and for an event
// s's filter rejects. A record is filtered on its stored columns and its
// header's subtype; a subscriber taking Record frames gets it copied into
// one, and only one taking Event frames has it decoded and encoded. Any
// other event's stored JSON is the Event frame the live stream carried:
// it is copied into the frame verbatim, and decoded for the frame's Event.
func (s *Subscriber) journalFrame(se *eventstore.Event, bl *backfill) (*sharedFrame, error) {
	if len(se.Payload) == 0 {
		return nil, nil // a gap: unencodable when published, or its append failed
	}
	m := s.b.metrics
	switch se.Kind {
	case eventstore.KindMRT:
		typ, err := recordType(se.Seq, se.Payload)
		if err != nil || !s.filter.matchRecord(se, typ) {
			return nil, err
		}
		if s.mrt {
			f := newFrame()
			f.ev.Seq = se.Seq
			f.rec = appendRecordFrame(f.rec[:0], se.Seq, se.Collector, se.Payload)
			m.encodeMRT.Add(1)
			return f, nil
		}
		if bl.codec == nil {
			bl.codec = &eventCodec{dec: mrt.Decoder{Borrow: true}}
		}
		rec, err := decodeRecord(&bl.codec.dec, se.Seq, se.Payload)
		if err != nil {
			return nil, err
		}
		ev, _ := EventFromRecord(se.Collector, rec, false)
		ev.Seq = se.Seq
		ev.Raw = bytes.Clone(se.Payload)
		f, err := newEventFrame(&ev, &bl.codec.enc)
		if err != nil {
			m.encodeErrors.Add(1) // skipped, as Publish would
			return nil, nil
		}
		m.encodeJSON.Add(1)
		return f, nil
	case eventstore.KindJSON:
		var ev Event
		if err := json.Unmarshal(se.Payload, &ev); err != nil {
			return nil, fmt.Errorf("livefeed: journaled event %d: %w", se.Seq, err)
		}
		ev.Seq = se.Seq
		if !s.filter.Match(&ev) {
			return nil, nil
		}
		f := newFrame()
		f.ev = ev
		w := append(f.wire[:0], make([]byte, frameHeaderLen)...)
		w = append(append(w, se.Payload...), '\n')
		sealFrame(w, FrameEvent)
		f.wire = w
		m.encodeJSON.Add(1)
		return f, nil
	default:
		return nil, fmt.Errorf("livefeed: journaled event %d has unknown kind %d", se.Seq, se.Kind)
	}
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
	if len(ev.Raw) == 0 && len(f.rec) > 0 {
		// A journaled record caught up in a Record frame: the frame holds
		// the event, its ev only the sequence number.
		ev, err = decodeRecordFrame(f.rec[frameHeaderLen:], &mrt.Decoder{Borrow: true}, nil)
	}
	f.release()
	return ev, err
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
	return Frame{f: f, mrt: s.mrt}, err
}

// TryNextFrame returns the next frame only if one is available without
// blocking: backlog first, then whatever the live ring holds right now.
// The server's writev batching uses it to gather consecutive frames. ok
// reports whether a frame was returned; errors (journal failure, close)
// are left for the next blocking call to surface, so a partially
// gathered batch is still written.
func (s *Subscriber) TryNextFrame() (Frame, bool) {
	if f, ok := s.backfillNext(); ok {
		return Frame{f: f, mrt: s.mrt}, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Frame{}, false
	}
	return Frame{f: s.popLocked(), mrt: s.mrt}, true
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
// session — the /statusz row zombietop renders. Format is the frame
// format the session takes (FormatJSON or FormatMRT). Lag is sequence
// distance to the broker head; Bytes counts wire bytes the server flushed
// to this session's connection (0 for in-process subscribers that never
// cross a socket), so Bytes over Delivered is the session's wire bytes
// per event; StallSeconds is publish time spent blocked on this
// subscriber's full ring (block policy only).
type SessionInfo struct {
	ID            uint64  `json:"id"`
	Policy        string  `json:"policy"`
	Format        string  `json:"format"`
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
		format := FormatJSON
		if s.mrt {
			format = FormatMRT
		}
		out = append(out, SessionInfo{
			ID:            s.id,
			Policy:        s.policy.String(),
			Format:        format,
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
