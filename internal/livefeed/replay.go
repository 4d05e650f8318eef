package livefeed

import (
	"context"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/eventstore"
	"zombiescope/internal/mrt"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
	"zombiescope/internal/zombie"
)

// SourcedRecord is one MRT record tagged with its collector, the unit the
// feed ingests.
type SourcedRecord struct {
	Collector string
	Rec       mrt.Record
}

// MergeUpdates decodes per-collector update archives and merges them into
// one timestamp-ordered stream, as a live consumer of multiple collectors
// would see it. Decoding runs through the pipeline engine (so a zombied
// replay accounts into the pipeline stage metrics like any batch run);
// collector names sort ties deterministically because the stable merge
// visits files in sorted-name order, each file's records in stream order.
func MergeUpdates(updates map[string][]byte) ([]SourcedRecord, error) {
	sp := obs.StartSpan("livefeed.merge_updates")
	defer sp.End()
	streams := make(map[string][][]byte, len(updates))
	for name, data := range updates {
		streams[name] = [][]byte{data}
	}
	// The stream keeps every record, so the fold decodes owning records.
	_, chunks, err := pipeline.FoldStreams(&pipeline.Engine{Trace: sp}, streams,
		func(pipeline.FileChunk) *[]SourcedRecord { return new([]SourcedRecord) },
		func(acc *[]SourcedRecord, fc pipeline.FileChunk, _ int, rec mrt.Record) error {
			*acc = append(*acc, SourcedRecord{Collector: fc.Name, Rec: rec})
			return nil
		})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, file := range chunks {
		for _, c := range file {
			n += len(*c)
		}
	}
	stream := make([]SourcedRecord, 0, n)
	for _, file := range chunks {
		for _, c := range file {
			stream = append(stream, *c...)
		}
	}
	sortSp := sp.Start("livefeed.sort_stream")
	sort.SliceStable(stream, func(i, j int) bool {
		return stream[i].Rec.RecordTime().Before(stream[j].Rec.RecordTime())
	})
	sortSp.End()
	sp.SetArg("records", len(stream))
	return stream, nil
}

// Pipeline wires a record source into a broker: every record is published
// on the updates channel AND observed by a server-side StreamDetector
// whose emissions are published on the zombie channel. This is the core
// of the zombied daemon; tests and examples reuse it in-process.
type Pipeline struct {
	Broker *Broker
	// Threshold is the zombie detection threshold (default 90m).
	Threshold time.Duration

	sd        *zombie.StreamDetector
	watermark time.Time

	// recovering mutes alert publication while Recover re-observes
	// journaled records: those detections already fired (and were
	// published) before the restart.
	recovering bool

	// Per-family beacon announcement counts and per-(peer, family)
	// deduped zombie counts back the detector_peer_zombie_rate gauges —
	// the paper's noisy-peer likelihood, computed live. Only touched from
	// the single ingest goroutine.
	annByFam    [2]int
	zombieCount map[peerFam]int
	lastPending int

	// pending mirrors the detector's check-queue length for concurrent
	// readers: the detector itself is single-goroutine by design, so the
	// observability surface (zombied's /readyz) must not reach into it
	// while the replay goroutine is ingesting.
	pending atomic.Int64
}

type peerFam struct {
	peer zombie.PeerID
	v6   bool
}

// NewPipeline builds a pipeline detecting over the given beacon
// intervals.
func NewPipeline(b *Broker, intervals []beacon.Interval, threshold time.Duration) *Pipeline {
	p := &Pipeline{Broker: b, Threshold: threshold, zombieCount: make(map[peerFam]int)}
	for _, iv := range intervals {
		p.annByFam[famIdx(iv.Prefix.Addr().Is6())]++
	}
	p.sd = zombie.NewStreamDetector(intervals, threshold, func(ev zombie.ZombieEvent) {
		if p.recovering {
			// The pre-crash run already published this alert; recovery
			// only needs the detector (and rate gauges) to catch up.
			p.notePeerZombie(ev)
			return
		}
		// Detection latency: how far the record watermark had advanced
		// past the scheduled check instant when the check actually fired.
		b.Metrics().detectLatency.Observe(max(p.watermark.Sub(ev.DetectedAt), 0).Seconds())
		// The alert inherits the ingest stamp of the record that fired the
		// check, so alert e2e latency spans detection, not just fan-out.
		ing := ev.IngestNanos
		if ing == 0 {
			ing = obs.Nanos()
		}
		b.PublishAt(AlertEvent(ev), ing)
		p.notePeerZombie(ev)
	})
	p.lastPending = p.sd.PendingChecks()
	p.pending.Store(int64(p.lastPending))
	b.Metrics().pendingChecks.Set(float64(p.lastPending))
	return p
}

func famIdx(v6 bool) int {
	if v6 {
		return 1
	}
	return 0
}

// notePeerZombie folds one detection into the per-peer zombie-rate gauge:
// non-duplicate zombie routes of the peer's family over the family's
// beacon announcements.
func (p *Pipeline) notePeerZombie(ev zombie.ZombieEvent) {
	if ev.Duplicate {
		return
	}
	v6 := ev.Prefix.Addr().Is6()
	k := peerFam{peer: ev.Peer, v6: v6}
	p.zombieCount[k]++
	ann := p.annByFam[famIdx(v6)]
	if ann == 0 {
		return
	}
	afi := "ipv4"
	if v6 {
		afi = "ipv6"
	}
	p.Broker.Metrics().peerRate.
		With(ev.Peer.Collector, strconv.FormatUint(uint64(ev.Peer.AS), 10), afi).
		Set(float64(p.zombieCount[k]) / float64(ann))
}

// syncChecks mirrors the stream detector's check queue into the fired
// counter and pending gauge after every clock advance.
func (p *Pipeline) syncChecks() {
	pending := p.sd.PendingChecks()
	m := p.Broker.Metrics()
	if fired := p.lastPending - pending; fired > 0 {
		m.checksFired.Add(int64(fired))
	}
	p.lastPending = pending
	p.pending.Store(int64(pending))
	m.pendingChecks.Set(float64(pending))
}

// Ingest advances the detection clock to the record's timestamp (firing
// any due checks) and publishes the record to the feed. The ingest stamp
// is taken here — the collector/archive boundary of the live path — and
// carried through the detector and the published frame, anchoring the
// end-to-end latency histogram.
func (p *Pipeline) Ingest(sr SourcedRecord) {
	ing := obs.Nanos()
	m := p.Broker.Metrics()
	p.watermark = sr.Rec.RecordTime()
	p.sd.SetIngestStamp(ing)
	p.sd.Advance(p.watermark)
	p.sd.Observe(sr.Collector, sr.Rec)
	m.stageDetect.Observe(obs.SinceNanos(ing))
	p.syncChecks()
	m.watermark.Set(float64(p.watermark.Unix()))
	p.Broker.PublishRecordAt(sr.Collector, sr.Rec, ing)
}

// Flush advances the detection clock past the end of the experiment so
// every remaining interval check fires.
func (p *Pipeline) Flush(until time.Time) {
	p.watermark = until
	p.sd.SetIngestStamp(obs.Nanos())
	p.sd.Advance(until)
	p.syncChecks()
	p.Broker.Metrics().watermark.Set(float64(until.Unix()))
}

// PendingChecks reports how many interval checks have not fired yet. It
// reads a mirrored counter rather than the detector itself, so it is
// safe to call concurrently with Ingest/Replay (zombied's /readyz does).
func (p *Pipeline) PendingChecks() int { return int(p.pending.Load()) }

// Recover rebuilds the detector from the durable event store: every
// journaled update record is re-observed (with alert publication muted —
// the pre-crash run already delivered those alerts), leaving the detector
// in the exact state it held when the last record was journaled. It
// returns how many update records were recovered; a daemon replaying a
// merged archive stream resumes ingestion at that offset. Alerts landing
// exactly at a crash boundary are delivered at least once: an alert
// published but not yet journaled before the crash is re-detected, muted,
// only if its interval check had not fired — consumers comparing route
// keys tolerate the duplicate.
func (p *Pipeline) Recover(st *eventstore.Store) (int, error) {
	sp := obs.StartSpan("livefeed.recover")
	defer sp.End()
	p.recovering = true
	defer func() { p.recovering = false }()
	n := 0
	// Scan payloads alias the segment mapping only until the callback
	// returns; the detector keeps nothing of the record, so each one is
	// decoded borrowed.
	dec := mrt.Decoder{Borrow: true}
	err := st.Scan(eventstore.Query{}, func(se eventstore.Event) error {
		if se.Kind != eventstore.KindMRT {
			// Non-record events (alerts, raw-less updates) carry clock
			// information only: a journaled alert proves its interval
			// check fired before the restart, so advancing past its
			// detection time keeps it from re-firing. Event times never
			// exceed the pre-crash record watermark, so this cannot
			// over-advance the clock.
			if se.Time.After(p.watermark) {
				p.watermark = se.Time
				p.sd.Advance(p.watermark)
			}
			return nil
		}
		rec, err := decodeRecord(&dec, se.Seq, se.Payload)
		if err != nil {
			return err
		}
		p.watermark = rec.RecordTime()
		p.sd.Advance(p.watermark)
		p.sd.Observe(se.Collector, rec)
		n++
		return nil
	})
	p.syncChecks()
	sp.SetArg("records", n)
	return n, err
}

// ResumeOffset maps a Recover count back into a merged record stream:
// it returns the index of the first record to ingest after n journaled
// update records were recovered. Only streamable records are journaled,
// so non-streamable records between journaled ones are skipped along the
// way (their only effect, advancing the detection clock, is reproduced
// by the journaled records around them).
func ResumeOffset(stream []SourcedRecord, n int) int {
	i := 0
	for ; i < len(stream) && n > 0; i++ {
		if Streamable(stream[i].Rec) {
			n--
		}
	}
	return i
}

// Replay feeds a pre-merged record stream through the pipeline. speed 0
// replays as fast as possible; otherwise record timestamp deltas are
// scaled by 1/speed wall time (speed 3600 plays an hour per second).
// Replay stops early when ctx is cancelled.
func (p *Pipeline) Replay(ctx context.Context, stream []SourcedRecord, flushAt time.Time, speed float64) error {
	sp := obs.StartSpan("livefeed.replay")
	sp.SetArg("records", len(stream))
	defer sp.End()
	var prev time.Time
	for _, sr := range stream {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		at := sr.Rec.RecordTime()
		if speed > 0 && !prev.IsZero() && at.After(prev) {
			wait := time.Duration(float64(at.Sub(prev)) / speed)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		prev = at
		p.Ingest(sr)
	}
	p.Flush(flushAt)
	return nil
}
