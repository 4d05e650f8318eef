package livefeed

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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

// shard groups every subscriber sharing one canonical filter signature.
// Because the subscribers of a shard have semantically identical filters
// (same membership sets per dimension), Publish evaluates the filter ONCE
// per shard and then walks only the members of matching shards — at RIS
// scale this turns "filter × subscribers" work into "filter × distinct
// filters", and the common case (everyone on the firehose or one of a
// few canned filters) into a handful of checks per event.
type shard struct {
	sig      string
	filter   Filter
	channels []string // channel index keys ("" = unrestricted)
	subs     map[*Subscriber]struct{}
}

// filterSig canonicalizes a filter into a signature string: each
// dimension's values are sorted and length-prefixed, so two filters with
// the same membership sets — in any order — land in the same shard.
// Filter semantics are pure set membership per dimension, which is what
// makes signature equality imply identical match behavior.
func filterSig(f Filter) string {
	var sb strings.Builder
	dim := func(tag byte, vals []string) {
		sb.WriteByte(tag)
		if len(vals) == 0 {
			return
		}
		sorted := append([]string(nil), vals...)
		sort.Strings(sorted)
		for _, v := range sorted {
			sb.WriteString(strconv.Itoa(len(v)))
			sb.WriteByte(':')
			sb.WriteString(v)
		}
	}
	dim('c', f.Channels)
	dim('t', f.Types)
	dim('o', f.Collectors)
	sb.WriteByte('a')
	if len(f.PeerAS) > 0 {
		asns := make([]uint64, len(f.PeerAS))
		for i, as := range f.PeerAS {
			asns[i] = uint64(as)
		}
		sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
		for _, as := range asns {
			sb.WriteString(strconv.FormatUint(as, 10))
			sb.WriteByte(',')
		}
	}
	sb.WriteByte('p')
	if len(f.Prefixes) > 0 {
		ps := make([]string, len(f.Prefixes))
		for i, p := range f.Prefixes {
			ps[i] = p.String()
		}
		sort.Strings(ps)
		for _, p := range ps {
			sb.WriteString(p)
			sb.WriteByte(',')
		}
	}
	return sb.String()
}

// channelKeys returns the channel-index keys a filter's shard registers
// under: the filter's channel set, or the catch-all "" when the filter
// does not restrict channels (it must be walked for every event).
func channelKeys(f Filter) []string {
	if len(f.Channels) == 0 {
		return []string{""}
	}
	keys := append([]string(nil), f.Channels...)
	sort.Strings(keys)
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			uniq = append(uniq, k)
		}
	}
	return uniq
}

// Broker assigns sequence numbers to published events, encodes each one
// exactly once into a shared wire frame, retains a bounded replay window
// of frames, and broadcasts frame references to subscribers grouped into
// filter shards.
type Broker struct {
	cfg     Config
	metrics *Metrics

	// headSeq mirrors seq so lag math (scrape hooks, Sessions) reads the
	// stream head without taking the broker lock.
	headSeq   atomic.Uint64
	nextSubID atomic.Uint64

	mu     sync.Mutex
	seq    uint64
	subs   map[*Subscriber]struct{}
	closed bool

	// shards groups subscribers by canonical filter signature; byChannel
	// indexes the shards whose filters can match an event of a given
	// channel ("" holds channel-unrestricted shards). Publish walks
	// byChannel[ev.Channel] + byChannel[""] only.
	shards    map[string]*shard
	byChannel map[string][]*shard

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
	b := &Broker{
		cfg:       cfg,
		metrics:   m,
		seq:       cfg.StartSeq,
		subs:      make(map[*Subscriber]struct{}),
		shards:    make(map[string]*shard),
		byChannel: make(map[string][]*shard),
	}
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
	b.mu.Lock()
	subs := make([]*Subscriber, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	for _, s := range subs {
		s.mu.Lock()
		queued := s.n
		s.mu.Unlock()
		last := s.lastSeq.Load()
		var lag uint64
		if head > last {
			lag = head - last
		}
		s.lagGauge.Set(float64(lag))
		s.queueGauge.Set(float64(queued))
	}
}

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

// ShardCount returns the number of distinct filter shards.
func (b *Broker) ShardCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.shards)
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

	// Broadcast: walk only the shards whose channel index can match, and
	// evaluate each shard's filter once for all of its subscribers.
	fanSpan := span.Start("fanout")
	var kicked []*Subscriber
	var pushes, skips, matches int64
	if f != nil {
		walk := func(list []*shard) {
			for _, sh := range list {
				if !sh.filter.Match(&ev) {
					skips++
					continue
				}
				matches++
				for s := range sh.subs {
					if s.push(f, b.metrics) {
						pushes++
					} else {
						kicked = append(kicked, s)
					}
				}
			}
		}
		walk(b.byChannel[ev.Channel])
		walk(b.byChannel[""])
	}
	if pushes > 0 {
		b.metrics.eventsOut.Add(pushes)
		b.metrics.framesShared.Add(pushes)
	}
	if skips > 0 {
		b.metrics.shardSkips.Add(skips)
	}
	if matches > 0 {
		b.metrics.shardMatches.Add(matches)
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
// events already evicted from the window as lost.
func (b *Broker) SubscribeFrom(f Filter, policy Policy, resumeFrom uint64, fromStart bool) (sub *Subscriber, lost uint64, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, 0, ErrBrokerClosed
	}
	sub = newSubscriber(b, f, policy, b.cfg.ringSize())
	replay := resumeFrom > 0 && resumeFrom < b.seq
	if fromStart && resumeFrom == 0 {
		replay = b.seq > 0
	}
	// Seed the lag baseline: a resuming subscriber starts lagging by its
	// catch-up distance and converges to zero as it drains; a fresh one
	// starts at the head.
	if replay {
		sub.lastSeq.Store(resumeFrom)
	} else {
		sub.lastSeq.Store(b.seq)
	}
	if replay {
		// The catch-up is NOT pushed into the subscriber's ring here: a
		// journal-served gap can exceed any ring (a month-scale store vs a
		// 1024-slot buffer), and a blocked push would deadlock the broker —
		// SubscribeFrom holds b.mu and the consumer that would drain the
		// ring only exists after it returns. Instead the gap is recorded as
		// a backlog (journal range + a snapshot of matching retained replay
		// frames, each holding its own reference) that Next serves lazily,
		// in batches, before live events. Live pushes start at the current
		// head, above everything in the backlog, so ordering stays
		// contiguous.
		firstAvail := b.seq + 1 - uint64(b.count) // oldest retained seq
		sub.catchUpSeq = b.seq
		bl := &backfill{}
		if resumeFrom+1 < firstAvail {
			if b.cfg.Journal != nil {
				// Serve the part of the gap the journal still holds; only
				// events older than its retention horizon are truly lost.
				from := resumeFrom
				jFirst := b.cfg.Journal.FirstSeq()
				if jFirst == 0 { // empty journal: the whole gap is gone
					lost = firstAvail - resumeFrom - 1
					from = firstAvail - 1
				} else if jFirst-1 > from {
					lost = jFirst - 1 - from
					from = jFirst - 1
				}
				if from+1 < firstAvail {
					bl.journal = b.cfg.Journal
					bl.nextSeq = from + 1
					bl.endSeq = firstAvail - 1
				}
			} else {
				lost = firstAvail - resumeFrom - 1
			}
		}
		for i := 0; i < b.count; i++ {
			fr := b.replay[(b.start+i)%len(b.replay)]
			if fr.ev.Seq <= resumeFrom || !f.Match(&fr.ev) {
				continue
			}
			fr.retain()
			bl.ring = append(bl.ring, fr)
		}
		if bl.journal != nil || len(bl.ring) > 0 {
			sub.backlog = bl
		}
	}
	b.subs[sub] = struct{}{}
	b.addToShardLocked(sub)
	b.metrics.subscribers.Add(1)
	b.metrics.subscribersTotal.Add(1)
	return sub, lost, nil
}

// addToShardLocked registers sub in the shard of its filter signature,
// creating the shard (and its channel-index entries) on first use.
func (b *Broker) addToShardLocked(sub *Subscriber) {
	sig := filterSig(sub.filter)
	sh := b.shards[sig]
	if sh == nil {
		sh = &shard{
			sig:      sig,
			filter:   sub.filter,
			channels: channelKeys(sub.filter),
			subs:     make(map[*Subscriber]struct{}),
		}
		b.shards[sig] = sh
		for _, ch := range sh.channels {
			b.byChannel[ch] = append(b.byChannel[ch], sh)
		}
		b.metrics.filterShards.Set(float64(len(b.shards)))
	}
	sh.subs[sub] = struct{}{}
	sub.shard = sh
}

// removeLocked detaches a subscriber from the broker's maps and its
// shard, dropping empty shards from the channel index.
func (b *Broker) removeLocked(s *Subscriber) {
	if _, ok := b.subs[s]; !ok {
		return
	}
	delete(b.subs, s)
	b.metrics.subscribers.Add(-1)
	b.metrics.subLag.Delete(s.idStr)
	b.metrics.subQueue.Delete(s.idStr)
	sh := s.shard
	if sh == nil {
		return
	}
	delete(sh.subs, s)
	if len(sh.subs) > 0 {
		return
	}
	delete(b.shards, sh.sig)
	for _, ch := range sh.channels {
		list := b.byChannel[ch]
		for i, cand := range list {
			if cand == sh {
				list[i] = list[len(list)-1]
				list[len(list)-1] = nil
				b.byChannel[ch] = list[:len(list)-1]
				break
			}
		}
		if len(b.byChannel[ch]) == 0 {
			delete(b.byChannel, ch)
		}
	}
	b.metrics.filterShards.Set(float64(len(b.shards)))
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
	subs := make([]*Subscriber, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = make(map[*Subscriber]struct{})
	b.shards = make(map[string]*shard)
	b.byChannel = make(map[string][]*shard)
	b.metrics.subscribers.Add(-float64(len(subs)))
	b.metrics.filterShards.Set(0)
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
		s.closeDetached(ErrBrokerClosed)
	}
}

// Subscriber is one attached feed consumer: a bounded ring of pending
// event frames plus the policy applied when the ring is full. Each ring
// slot holds one reference on its frame; dequeuing transfers that
// reference to the consumer (Next releases it after copying the event
// out, NextFrame hands it to the caller).
type Subscriber struct {
	b      *Broker
	filter Filter
	policy Policy
	shard  *shard // registration shard; broker-lock protected

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

	// backlog holds the resume catch-up (journal range + retained-frame
	// snapshot) that Next serves before live events. It is touched only
	// by the consumer goroutine, never under a lock.
	backlog *backfill

	// catchUpSeq is the broker head at subscribe time for a resuming
	// subscriber (0 otherwise). Frames at or below it are catch-up: their
	// ingest stamps are historical, so the server excludes them from the
	// end-to-end latency histogram — a reconnecting client must not spike
	// e2e p999 with its own catch-up distance. Written once before the
	// subscriber is returned, read-only after.
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

// backfill is the catch-up state handed to a resuming subscriber by
// SubscribeFrom: first the journal range (nextSeq..endSeq), then the
// snapshot of matching frames the broker's replay window still retained
// at subscribe time (one reference each). Consumer-goroutine-only; no
// lock needed. Journal events are re-encoded into private frames on
// dequeue — the filter applied inside the Replay callback is the
// post-filter that keeps a resuming subscriber's view correct without
// the broker walking its filter at publish time.
type backfill struct {
	journal  Journal
	nextSeq  uint64 // next journal seq to serve; > endSeq when done
	endSeq   uint64 // last journal seq to serve (inclusive); 0 = no journal part
	batch    []Event
	batchPos int
	ring     []*sharedFrame
	ringPos  int
}

// releaseRing drops the snapshot's remaining frame references (used when
// the catch-up is abandoned).
func (bl *backfill) releaseRing() {
	for ; bl.ringPos < len(bl.ring); bl.ringPos++ {
		bl.ring[bl.ringPos].release()
		bl.ring[bl.ringPos] = nil
	}
}

// backfillNext serves the next catch-up frame, reading the journal in
// batches outside every lock. ok is false once the backlog is exhausted
// (the caller falls through to the live ring). The returned frame's
// reference is owned by the caller. A journal read error closes the
// subscriber with ErrJournal: a journal that cannot be read must not
// become a silent gap in a stream the client asked to resume.
func (s *Subscriber) backfillNext() (f *sharedFrame, ok bool, err error) {
	bl := s.backlog
	if bl == nil {
		return nil, false, nil
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// Abandon the catch-up; next() drains any buffered live events
		// and then reports the close reason, same as every consumer.
		bl.releaseRing()
		s.backlog = nil
		return nil, false, nil
	}
	for {
		if bl.batchPos < len(bl.batch) {
			ev := &bl.batch[bl.batchPos]
			bl.batchPos++
			// Journal catch-up events are encoded on dequeue into private
			// frames (refs=1, owned by the caller): the resume path is the
			// one place re-encoding still happens, and it is metered.
			f, ferr := newEventFrame(ev)
			*ev = Event{} // release references
			if ferr != nil {
				b := s.b
				b.metrics.encodeErrors.Add(1)
				continue // skip the unencodable event, as Publish would
			}
			s.b.metrics.encodes.Add(1)
			s.b.metrics.eventsOut.Add(1)
			s.noteDelivered(f)
			return f, true, nil
		}
		if bl.journal != nil && bl.nextSeq <= bl.endSeq {
			to := bl.nextSeq - 1 + backfillBatch
			if to > bl.endSeq {
				to = bl.endSeq
			}
			bl.batch = bl.batch[:0]
			bl.batchPos = 0
			rerr := bl.journal.Replay(bl.nextSeq-1, to, func(ev Event) error {
				if s.filter.Match(&ev) {
					bl.batch = append(bl.batch, ev)
				}
				return nil
			})
			if rerr != nil {
				s.b.metrics.journalErrors.Add(1)
				bl.releaseRing()
				s.backlog = nil
				werr := fmt.Errorf("%w: %v", ErrJournal, rerr)
				s.markClosed(werr)
				s.b.remove(s)
				return nil, false, werr
			}
			bl.nextSeq = to + 1
			continue
		}
		if bl.ringPos < len(bl.ring) {
			f := bl.ring[bl.ringPos]
			bl.ring[bl.ringPos] = nil // reference transfers to the caller
			bl.ringPos++
			s.b.metrics.eventsOut.Add(1)
			s.noteDelivered(f)
			return f, true, nil
		}
		s.backlog = nil
		return nil, false, nil
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
	f, err := s.nextFrame(time.Time{})
	if err != nil {
		return Event{}, err
	}
	ev := f.ev
	f.release()
	return ev, nil
}

// errIdle reports an expired NextTimeout wait; the subscriber is intact.
var errIdle = fmt.Errorf("livefeed: no event within the wait")

// NextTimeout is Next bounded by a wait: if no event arrives within d it
// returns errIdle while the subscription stays attached. The server's
// heartbeat loop uses it to interleave keepalives into idle streams.
func (s *Subscriber) NextTimeout(d time.Duration) (Event, error) {
	f, err := s.nextFrameTimeout(d)
	if err != nil {
		return Event{}, err
	}
	ev := f.ev
	f.release()
	return ev, nil
}

// NextFrame is the zero-copy Next: it blocks until an event is available
// and returns it in encoded wire form. The caller owns the frame's
// reference and must Release it once the bytes have been consumed.
func (s *Subscriber) NextFrame() (Frame, error) {
	f, err := s.nextFrame(time.Time{})
	if err != nil {
		return Frame{}, err
	}
	return Frame{f: f}, nil
}

// NextFrameTimeout is NextFrame bounded by a wait (errIdle semantics as
// NextTimeout).
func (s *Subscriber) NextFrameTimeout(d time.Duration) (Frame, error) {
	f, err := s.nextFrameTimeout(d)
	if err != nil {
		return Frame{}, err
	}
	return Frame{f: f}, nil
}

// TryNextFrame returns the next frame only if one is available without
// blocking (backfill batches may still read the journal). ok reports
// whether a frame was returned; a stream-ending condition surfaces on
// the next blocking call instead.
func (s *Subscriber) TryNextFrame() (Frame, bool) {
	f, ok := s.tryNextFrame()
	if !ok {
		return Frame{}, false
	}
	return Frame{f: f}, true
}

func (s *Subscriber) nextFrameTimeout(d time.Duration) (*sharedFrame, error) {
	if f, ok, err := s.backfillNext(); ok || err != nil {
		return f, err
	}
	if d <= 0 {
		return s.nextLive(time.Time{})
	}
	// A sleeping cond.Wait cannot be timed out directly; an AfterFunc
	// broadcast wakes every waiter, and the deadline check in nextLive
	// turns the spurious wakeup into errIdle for this caller only. The
	// deadline is taken before the timer is armed, so the timer never
	// fires ahead of it, and the broadcast holds the lock, so it cannot
	// land between nextLive's deadline check and its Wait — either would
	// leave the caller asleep until the next publish.
	deadline := time.Now().Add(d)
	timer := time.AfterFunc(d, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	return s.nextLive(deadline)
}

func (s *Subscriber) nextFrame(deadline time.Time) (*sharedFrame, error) {
	if f, ok, err := s.backfillNext(); ok || err != nil {
		return f, err
	}
	return s.nextLive(deadline)
}

// tryNextFrame is the non-blocking dequeue the server's writev batching
// uses to gather consecutive frames: backlog first, then whatever the
// live ring holds right now. Errors (journal failure, close) are left
// for the next blocking call to surface so a partially-gathered batch
// is still written.
func (s *Subscriber) tryNextFrame() (*sharedFrame, bool) {
	if s.backlog != nil {
		f, ok, err := s.backfillNext()
		if err != nil {
			return nil, false
		}
		if ok {
			return f, true
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil, false
	}
	f := s.buf[s.head]
	s.buf[s.head] = nil // reference transfers to the caller
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	s.cond.Signal() // wake a blocked publisher
	s.noteDelivered(f)
	return f, true
}

// nextLive dequeues from the live ring, blocking until a frame arrives,
// the deadline passes (errIdle), or the subscriber closes. The dequeued
// slot's reference transfers to the caller.
func (s *Subscriber) nextLive(deadline time.Time) (*sharedFrame, error) {
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
	f := s.buf[s.head]
	s.buf[s.head] = nil // reference transfers to the caller
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	s.cond.Signal() // wake a blocked publisher
	s.noteDelivered(f)
	return f, nil
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

// closeDetached closes a subscriber already removed from the broker.
func (s *Subscriber) closeDetached(reason error) { s.markClosed(reason) }

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
	b.mu.Lock()
	subs := make([]*Subscriber, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	out := make([]SessionInfo, 0, len(subs))
	for _, s := range subs {
		s.mu.Lock()
		queued, drops := s.n, s.drops
		s.mu.Unlock()
		last := s.lastSeq.Load()
		var lag uint64
		if head > last {
			lag = head - last
		}
		out = append(out, SessionInfo{
			ID:            s.id,
			Policy:        s.policy.String(),
			UptimeSeconds: obs.SinceNanos(s.since),
			Queue:         queued,
			Cap:           len(s.buf),
			LastSeq:       last,
			Lag:           lag,
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
