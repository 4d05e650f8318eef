package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/eventstore"
	"zombiescope/internal/livefeed"
	"zombiescope/internal/zombie"
)

// liveInput is a merged record stream plus the schedule the daemon's
// detector runs on, as zombied's simulated-scenario mode builds them.
type liveInput struct {
	updates   map[string][]byte
	stream    []livefeed.SourcedRecord
	intervals []beacon.Interval
	flushAt   time.Time

	// What the journal and the wire carry for this stream, captured by the
	// first staged pass for the layers timed alone.
	stored []eventstore.Event
	wire   []byte
}

// capture builds stored and wire once.
func (in *liveInput) capture() error {
	if in.stored != nil {
		return nil
	}
	var wire bytes.Buffer
	for _, sr := range in.stream {
		ev, ok := livefeed.EventFromRecord(sr.Collector, sr.Rec, true)
		if !ok {
			continue
		}
		ev.Seq = uint64(len(in.stored) + 1)
		in.stored = append(in.stored, eventstore.Event{
			Seq: ev.Seq, Time: ev.Timestamp, Collector: ev.Collector,
			PeerAS: uint32(ev.PeerAS), PeerAddr: ev.Peer,
			Kind: eventstore.KindMRT, Prefixes: ev.Prefixes(), Payload: ev.Raw,
		})
		if err := livefeed.WriteFrame(&wire, livefeed.FrameEvent, &ev); err != nil {
			return err
		}
	}
	in.wire = wire.Bytes()
	return nil
}

func generateLive(e *env, scale int) (*liveInput, error) {
	d, err := authorScenario(e, scale)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	stream, err := livefeed.MergeUpdates(d.Updates)
	if err != nil {
		return nil, err
	}
	e.layers.add("livefeed.merge_ms", millisSince(start))
	return &liveInput{updates: d.Updates, stream: stream, intervals: d.Intervals, flushAt: d.Config.TrackUntil}, nil
}

// rig is one fully wired zombied feed path: journal store, broker,
// detection pipeline, TCP server on loopback, and the benchmark's
// subscriber connections.
type rig struct {
	store  *eventstore.Store
	broker *livefeed.Broker
	pipe   *livefeed.Pipeline
	srv    *livefeed.Server
	addr   string
	served chan struct{}
	subs   []*subscriber
}

// openRig opens (or creates) the journal in dir and starts serving. A
// non-empty journal continues its numbering, as a restarted daemon does.
func openRig(dir string, segmentBytes int64, intervals []beacon.Interval) (*rig, error) {
	store, err := eventstore.Open(eventstore.Options{Dir: dir, SegmentBytes: segmentBytes})
	if err != nil {
		return nil, err
	}
	r := &rig{store: store, served: make(chan struct{})}
	r.broker = livefeed.NewBroker(livefeed.Config{
		Journal:  &livefeed.StoreJournal{Store: store},
		StartSeq: store.LastSeq(),
	})
	r.pipe = livefeed.NewPipeline(r.broker, intervals, threshold)
	r.srv = &livefeed.Server{Broker: r.broker, Name: "bench/1", AllowBlock: true}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	r.addr = l.Addr().String()
	go func() {
		defer close(r.served)
		r.srv.Serve(l) // returns net.ErrClosed at shutdown
	}()
	return r, nil
}

// subscribe attaches n lossless subscribers over loopback TCP.
func (r *rig) subscribe(n int, fromStart bool, onEvent func(sub int, ev *livefeed.Event, at time.Time)) error {
	for i := 0; i < n; i++ {
		conn, err := livefeed.DialWith(r.addr, livefeed.Filter{}, livefeed.PolicyBlock, 0,
			livefeed.DialOptions{FromStart: fromStart})
		if err != nil {
			return err
		}
		s := &subscriber{id: i, conn: conn, onEvent: onEvent, reached: make(chan struct{}), ended: make(chan struct{})}
		if fromStart {
			s.nextSeq = 1
		} else {
			s.nextSeq = conn.Ack.Head + 1
		}
		r.subs = append(r.subs, s)
		s.wg.Add(1)
		go s.run()
	}
	return nil
}

// awaitHead blocks until every subscriber has received the broker's
// current head and returns when the last of them did.
func (r *rig) awaitHead() time.Time {
	head := r.broker.Seq()
	var last time.Time
	for _, s := range r.subs {
		s.target.Store(head)
		if s.lastSeq.Load() < head {
			select {
			case <-s.reached:
			case <-s.ended: // connection failed; the checks report it
			}
		}
		if at := time.Unix(0, s.lastAt.Load()); at.After(last) {
			last = at
		}
	}
	return last
}

// deliveryCheck is what a live pass verifies per subscriber.
type deliveryCheck struct {
	wantEvents uint64 // events every subscriber must have received
	wantAlerts int    // zombie-channel events among them
}

// verify counts expected deliveries and the ones that failed: missing,
// duplicated or out-of-order events, loss reported at subscribe time,
// broker-side drops, and a wrong alert count.
func (r *rig) verify(c deliveryCheck) (attempted, failed int, note string) {
	for _, s := range r.subs {
		attempted += int(c.wantEvents)
		bad := s.disorder
		if s.received < c.wantEvents {
			bad += c.wantEvents - s.received
		}
		bad += s.conn.Ack.Lost
		if s.alerts != c.wantAlerts {
			bad++
			note = fmt.Sprintf("subscriber %d saw %d alerts, reference %d", s.id, s.alerts, c.wantAlerts)
		}
		if bad > 0 && note == "" {
			note = fmt.Sprintf("subscriber %d: %d of %d events received, %d out of order, lost %d, err %v",
				s.id, s.received, c.wantEvents, s.disorder, s.conn.Ack.Lost, s.err)
		}
		failed += int(bad)
	}
	if drops, _ := r.lossCounters(); drops > 0 {
		failed += int(drops)
		note = fmt.Sprintf("broker dropped %d events", drops)
	}
	return attempted, failed, note
}

// lossCounters are the rig's loss counters, for the per-layer table.
func (r *rig) lossCounters() (drops, lost uint64) {
	for _, s := range r.broker.Sessions() {
		drops += s.Drops
	}
	for _, s := range r.subs {
		lost += s.conn.Ack.Lost
	}
	return drops, lost
}

// close tears the rig down in the daemon's order: subscribers leave, the
// broker closes, the server drains, the store seals.
func (r *rig) close() error {
	for _, s := range r.subs {
		s.conn.Close()
		s.wg.Wait()
	}
	r.broker.Close()
	r.srv.Shutdown(5 * time.Second)
	<-r.served
	return r.store.Close()
}

// subscriber is one loopback feed connection and what it has seen.
type subscriber struct {
	id      int
	conn    *livefeed.Conn
	onEvent func(sub int, ev *livefeed.Event, at time.Time)
	wg      sync.WaitGroup

	// Written by run, read by the driver only after awaitHead or close.
	nextSeq  uint64
	received uint64
	disorder uint64 // events whose Seq was not the next one
	alerts   int
	err      error

	lastSeq atomic.Uint64
	lastAt  atomic.Int64 // UnixNano of the latest receipt
	target  atomic.Uint64
	reached chan struct{} // closed once lastSeq >= target
	ended   chan struct{} // closed when run returns
}

func (s *subscriber) run() {
	defer s.wg.Done()
	defer close(s.ended)
	signalled := false
	for {
		ev, err := s.conn.Next()
		if err != nil {
			s.err = err // the driver closing the connection ends the loop
			return
		}
		at := time.Now()
		if ev.Seq != s.nextSeq {
			s.disorder++
		}
		s.nextSeq = ev.Seq + 1
		s.received++
		if ev.Channel == livefeed.ChannelZombie {
			s.alerts++
		}
		if s.onEvent != nil {
			s.onEvent(s.id, &ev, at)
		}
		s.lastAt.Store(at.UnixNano())
		s.lastSeq.Store(ev.Seq)
		if t := s.target.Load(); t != 0 && ev.Seq >= t && !signalled {
			signalled = true
			close(s.reached)
		}
	}
}

// batchAlerts is the alert count the zombie channel must carry: one per
// zombie route of the sequential batch detector, duplicates included.
func batchAlerts(in *liveInput) (int, error) {
	rep, err := (&zombie.Detector{Threshold: threshold}).Detect(in.updates, in.intervals)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ob := range rep.Outbreaks {
		n += len(ob.Routes)
	}
	return n, nil
}

func streamable(stream []livefeed.SourcedRecord) int {
	n := 0
	for _, sr := range stream {
		if livefeed.Streamable(sr.Rec) {
			n++
		}
	}
	return n
}

// --- live-drain ---

// liveDrain floods the daemon's whole publish path: replay at full speed
// into a journaled broker with subscribers attached, until every
// subscriber is at head.
type liveDrain struct {
	e          *env
	stride     int
	in         *liveInput
	records    int
	wantAlerts int
	passes     int
}

func (w *liveDrain) setUp() (err error) {
	w.in, err = generateLive(w.e, w.stride)
	return err
}

func (w *liveDrain) reference() (err error) {
	w.records = streamable(w.in.stream)
	if w.wantAlerts, err = batchAlerts(w.in); err != nil {
		return err
	}
	if w.wantAlerts < 50 {
		return fmt.Errorf("reference has %d alerts, want at least 50", w.wantAlerts)
	}
	return nil
}

func (w *liveDrain) journalDir() string {
	w.passes++
	return filepath.Join(w.e.dir, fmt.Sprintf("journal-%d", w.passes))
}

// flood is one pass, under spans when root is non-nil. The untraced pass
// replays through Pipeline.Replay as the daemon does; with ingestNanos set
// the driver makes the same Ingest calls itself to time each one.
func (w *liveDrain) flood(root *span, ingestNanos *[]float64) (res passResult, drops, lost uint64, err error) {
	dir := w.journalDir()
	defer os.RemoveAll(dir)
	start := time.Now()
	var r *rig
	if _, err = root.time("livefeed.rig_open", func() (err error) {
		if r, err = openRig(dir, 0, w.in.intervals); err != nil {
			return err
		}
		return r.subscribe(w.e.subs, false, nil)
	}); err == nil {
		_, err = root.time("livefeed.ingest", func() error {
			if ingestNanos == nil {
				return r.pipe.Replay(context.Background(), w.in.stream, w.in.flushAt, 0)
			}
			prev := time.Now()
			for _, sr := range w.in.stream {
				r.pipe.Ingest(sr)
				now := time.Now()
				*ingestNanos = append(*ingestNanos, float64(now.Sub(prev)))
				prev = now
			}
			r.pipe.Flush(w.in.flushAt)
			return nil
		})
	}
	if err != nil {
		if r != nil {
			r.close()
		}
		return passResult{}, 0, 0, err
	}
	var end time.Time
	root.time("livefeed.drain_tail", func() error { end = r.awaitHead(); return nil })
	res = passResult{wall: end.Sub(start), items: w.records}
	res.attempted, res.failed, res.note = r.verify(deliveryCheck{
		wantEvents: uint64(w.records + w.wantAlerts),
		wantAlerts: w.wantAlerts,
	})
	drops, lost = r.lossCounters()
	return res, drops, lost, r.close()
}

func (w *liveDrain) measure(d time.Duration) (*measurement, error) {
	return closedLoop(d, func() (passResult, error) {
		res, _, _, err := w.flood(nil, nil)
		return res, err
	})
}

func (w *liveDrain) staged(log *spanLog, pass int) error {
	t := w.e.layers
	ingest := make([]float64, 0, len(w.in.stream))
	root := log.root("pass", pass)
	res, drops, lost, err := w.flood(root, &ingest)
	root.end()
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("staged wired pass: %s", res.note)
	}
	sorted := sortedCopy(ingest)
	t.add("livefeed.ingest_p50_ns", quantile(sorted, 0.5))
	t.add("livefeed.ingest_p99_ns", quantile(sorted, 0.99))
	t.add("livefeed.drops", float64(drops))
	t.add("livefeed.lost", float64(lost))

	// The publish path's layers, each alone.
	return stagedLiveLayers(log.root("extras", pass), w.e, w.in, filepath.Join(w.e.dir, "journal-extras"))
}

// stagedLiveLayers times the layers under Pipeline.Ingest one at a time
// over the whole stream: the stream detector without a broker, the broker
// without journal or subscribers, the broker with the journal, the store's
// Append on captured payloads, and the client's frame decoding over the
// captured wire bytes.
func stagedLiveLayers(extras *span, e *env, in *liveInput, dir string) error {
	t := e.layers
	defer extras.end()
	perRecord := func(d time.Duration, n int) float64 { return float64(d) / float64(n) }

	alerts := 0
	d, _ := extras.time("zombie.stream", func() error {
		sd := zombie.NewStreamDetector(in.intervals, threshold, func(zombie.ZombieEvent) { alerts++ })
		for _, sr := range in.stream {
			sd.Advance(sr.Rec.RecordTime())
			sd.Observe(sr.Collector, sr.Rec)
		}
		sd.Advance(in.flushAt)
		return nil
	})
	t.add("zombie.stream_ns_per_record", perRecord(d, len(in.stream)))
	t.set("zombie.stream_alerts", float64(alerts))

	publish := func(b *livefeed.Broker) func() error {
		return func() error {
			for _, sr := range in.stream {
				b.PublishRecord(sr.Collector, sr.Rec)
			}
			return nil
		}
	}
	plain := livefeed.NewBroker(livefeed.Config{})
	d, _ = extras.time("livefeed.publish", publish(plain))
	events := int(plain.Seq())
	plain.Close()
	t.add("livefeed.publish_ns_per_event", perRecord(d, events))

	defer os.RemoveAll(dir)
	store, err := eventstore.Open(eventstore.Options{Dir: filepath.Join(dir, "broker")})
	if err != nil {
		return err
	}
	journaled := livefeed.NewBroker(livefeed.Config{Journal: &livefeed.StoreJournal{Store: store}})
	d, _ = extras.time("livefeed.publish_journal", publish(journaled))
	journaled.Close()
	if err := store.Close(); err != nil {
		return err
	}
	t.add("livefeed.publish_journal_ns_per_event", perRecord(d, events))

	if err := in.capture(); err != nil {
		return err
	}
	stored := in.stored
	t.set("livefeed.wire_bytes_per_event", float64(len(in.wire))/float64(len(stored)))

	if store, err = eventstore.Open(eventstore.Options{Dir: filepath.Join(dir, "append")}); err != nil {
		return err
	}
	d, err = extras.time("eventstore.append", func() error {
		for i := range stored {
			if err := store.Append(stored[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t.add("eventstore.append_ns_per_event", perRecord(d, len(stored)))

	d, err = extras.time("livefeed.client_decode", func() error {
		rd := bytes.NewReader(in.wire)
		for range stored {
			_, payload, err := livefeed.ReadFrame(rd)
			if err != nil {
				return err
			}
			var ev livefeed.Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.add("livefeed.client_decode_ns_per_event", perRecord(d, len(stored)))
	return nil
}

// --- live-paced ---

// pacedRate is the open-loop arrival rate: about a tenth of what
// live-drain sustains on two cores.
const pacedRate = 10000 // records per second

// pacedDiscard is how much of the window's head carries no latency
// sample (half the window when it is shorter than two seconds):
// connections, pools and the scheduler are still warming up.
const pacedDiscard = time.Second

// livePaced ingests on a fixed schedule — record k is due at t0 + k/rate
// whatever the system does — and times every updates-channel event from
// its due time to its receipt at each subscriber.
type livePaced struct {
	e      *env
	stride int
	in     *liveInput
	// dueOffset[j] is when the record behind the j-th updates-channel
	// event is due, relative to t0; fixed before the window starts.
	dueOffset []time.Duration
	// discard is the head of the current window that carries no samples.
	discard time.Duration
	passes  int
	cut     *liveInput // the staged window's stream, for the layers alone
}

func (w *livePaced) setUp() (err error) {
	w.in, err = generateLive(w.e, w.stride)
	return err
}

func (w *livePaced) reference() error { return nil }

// schedule cuts the stream to what the window can hold and fixes every
// record's due time.
func (w *livePaced) schedule(d time.Duration) []livefeed.SourcedRecord {
	n := int(d.Seconds() * pacedRate)
	if n > len(w.in.stream) {
		n = len(w.in.stream)
	}
	stream := w.in.stream[:n]
	w.discard = min(pacedDiscard, d/2)
	w.dueOffset = w.dueOffset[:0]
	for k, sr := range stream {
		if livefeed.Streamable(sr.Rec) {
			w.dueOffset = append(w.dueOffset, dueAfter(k))
		}
	}
	return stream
}

// dueAfter is the k-th record's due time after t0. It depends on k alone:
// a stall delays nothing that follows it, so the wait it causes is
// counted in every later event's latency.
func dueAfter(k int) time.Duration { return time.Duration(k) * time.Second / pacedRate }

// pacedRun is what one open-loop window measured.
type pacedRun struct {
	latency   [][]float64 // per subscriber: due → receipt of updates events, ms
	alertLat  [][]float64 // per subscriber: same for zombie-channel events
	lateness  []float64   // per record: due → Ingest call, ms
	ingest    []float64   // per record: Ingest call duration, ns
	wall      time.Duration
	attempted int
	failed    int
	note      string
	drops     uint64
	lost      uint64
}

// run drives one open-loop window over stream, under spans when root is
// non-nil.
func (w *livePaced) run(stream []livefeed.SourcedRecord, root *span) (*pacedRun, error) {
	w.passes++
	dir := filepath.Join(w.e.dir, fmt.Sprintf("journal-%d", w.passes))
	defer os.RemoveAll(dir)
	// The reference alert count for exactly this cut of the stream.
	wantAlerts := 0
	sd := zombie.NewStreamDetector(w.in.intervals, threshold, func(zombie.ZombieEvent) { wantAlerts++ })
	for _, sr := range stream {
		sd.Advance(sr.Rec.RecordTime())
		sd.Observe(sr.Collector, sr.Rec)
	}

	run := &pacedRun{
		latency:  make([][]float64, w.e.subs),
		alertLat: make([][]float64, w.e.subs),
		lateness: make([]float64, 0, len(stream)),
		ingest:   make([]float64, 0, len(stream)),
	}
	for i := range run.latency {
		run.latency[i] = make([]float64, 0, len(w.dueOffset))
	}
	var t0 time.Time
	updatesSeen := make([]int, w.e.subs)
	onEvent := func(sub int, ev *livefeed.Event, at time.Time) {
		j := updatesSeen[sub]
		if j >= len(w.dueOffset) {
			j = len(w.dueOffset) - 1
		}
		// An alert fires while the record behind the next updates event is
		// being ingested, so that record's due time is the alert's too.
		lat := float64(at.Sub(t0.Add(w.dueOffset[j]))) / 1e6
		if ev.Channel == livefeed.ChannelUpdates {
			updatesSeen[sub]++
			if w.dueOffset[j] >= w.discard {
				run.latency[sub] = append(run.latency[sub], lat)
			}
		} else {
			run.alertLat[sub] = append(run.alertLat[sub], lat)
		}
	}

	var r *rig
	if _, err := root.time("livefeed.rig_open", func() (err error) {
		if r, err = openRig(dir, 0, w.in.intervals); err != nil {
			return err
		}
		t0 = time.Now().Add(10 * time.Millisecond) // before any subscriber can read it
		return r.subscribe(w.e.subs, false, onEvent)
	}); err != nil {
		if r != nil {
			r.close()
		}
		return nil, err
	}
	root.time("livefeed.ingest", func() error {
		pace(t0, len(stream), func(k int, late time.Duration) {
			started := time.Now()
			r.pipe.Ingest(stream[k])
			if dueAfter(k) >= w.discard {
				run.lateness = append(run.lateness, float64(late)/1e6)
				run.ingest = append(run.ingest, float64(time.Since(started)))
			}
		})
		return nil
	})
	var end time.Time
	root.time("livefeed.drain_tail", func() error { end = r.awaitHead(); return nil })
	run.wall = end.Sub(t0)
	run.attempted, run.failed, run.note = r.verify(deliveryCheck{
		wantEvents: uint64(len(w.dueOffset) + wantAlerts),
		wantAlerts: wantAlerts,
	})
	run.drops, run.lost = r.lossCounters()
	return run, r.close()
}

// pace is the open-loop generator: it calls op(k, late) for k in [0, n),
// each no earlier than its due time t0 + dueAfter(k), and tells it how
// late the call is. Due times never move: after a slow op the following
// calls run back to back, late, until the schedule is caught up.
func pace(t0 time.Time, n int, op func(k int, late time.Duration)) {
	for k := 0; k < n; k++ {
		due := t0.Add(dueAfter(k))
		op(k, waitUntil(due).Sub(due))
	}
}

// waitUntil returns the time once the clock reaches due: it sleeps while
// due is far and spins for the last stretch, because time.Sleep overshoots
// by more than the 100 µs between arrivals. The spin must not yield: a
// goroutine that is always runnable keeps the scheduler from ever polling
// the network, which delays every subscriber's wake-up by milliseconds.
func waitUntil(due time.Time) time.Time {
	for {
		now := time.Now()
		left := due.Sub(now)
		if left <= 0 {
			return now
		}
		if left > 2*time.Millisecond {
			time.Sleep(left - time.Millisecond)
		}
	}
}

// pacedProbes is how many probe samples frame an open-loop window on each
// side: the generator owns a core during the window, so none fit inside.
const pacedProbes = 5

func (w *livePaced) measure(d time.Duration) (*measurement, error) {
	var probes []float64
	for i := 0; i < pacedProbes; i++ {
		probes = append(probes, probeMillis())
	}
	run, err := w.run(w.schedule(d), nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < pacedProbes; i++ {
		probes = append(probes, probeMillis())
	}
	m := &measurement{
		probes:    probes,
		items:     len(w.dueOffset),
		opItems:   1, // an op is one delivered event
		wall:      run.wall,
		attempted: run.attempted,
	}
	for _, lat := range run.latency {
		m.opMillis = append(m.opMillis, lat...)
	}
	if len(m.opMillis) == 0 {
		return nil, fmt.Errorf("window of %v left no latency samples after the first %v", d, w.discard)
	}
	if run.failed > 0 {
		m.failed = run.failed - 1
		m.fail("%s", run.note)
	}
	late := sortedCopy(run.lateness)
	fmt.Fprintf(os.Stderr, "bench: live-paced: generator lateness p50 %.3f ms, p99 %.3f ms; latency p50 %.3f ms\n",
		quantile(late, 0.5), quantile(late, 0.99), median(m.opMillis))
	w.recordLayers(run, m.opMillis)
	return m, nil
}

// recordLayers files the open-loop window's diagnostics: the tails that
// are too noisy to gate on, the generator's own lateness, and the
// per-Ingest cost.
func (w *livePaced) recordLayers(run *pacedRun, opMillis []float64) {
	t := w.e.layers
	t.set("livefeed.e2e_p99_us", 1000*quantile(sortedCopy(opMillis), 0.99))
	var alerts []float64
	for _, lat := range run.alertLat {
		alerts = append(alerts, lat...)
	}
	t.set("livefeed.alert_p50_us", 1000*median(alerts))
	t.set("bench.gen_late_p99_us", 1000*quantile(sortedCopy(run.lateness), 0.99))
	sorted := sortedCopy(run.ingest)
	t.set("livefeed.ingest_p50_ns", quantile(sorted, 0.5))
	t.set("livefeed.ingest_p99_ns", quantile(sorted, 0.99))
	t.set("livefeed.drops", float64(run.drops))
	t.set("livefeed.lost", float64(run.lost))
}

// stagedWindow is the open-loop window of a staged pass: long enough to
// pass the discarded head, short enough for five of them.
const stagedWindow = 2 * time.Second

func (w *livePaced) staged(log *spanLog, pass int) error {
	stream := w.schedule(stagedWindow)
	root := log.root("pass", pass)
	run, err := w.run(stream, root)
	root.end()
	if err != nil {
		return err
	}
	if run.failed > 0 {
		return fmt.Errorf("staged window: %s", run.note)
	}
	if w.cut == nil {
		w.cut = &liveInput{stream: stream, intervals: w.in.intervals, flushAt: w.in.flushAt}
	}
	return stagedLiveLayers(log.root("extras", pass), w.e, w.cut, filepath.Join(w.e.dir, "journal-extras"))
}
