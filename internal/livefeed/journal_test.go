package livefeed

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/eventstore"
	"zombiescope/internal/experiments"
	"zombiescope/internal/mrt"
	"zombiescope/internal/zombie"
)

// nextTimeout is Subscriber.Next bounded by a wait of d (errIdle when
// nothing arrives).
func nextTimeout(sub *Subscriber, d time.Duration) (Event, error) {
	fr, err := sub.NextFrameTimeout(d)
	if err != nil {
		return Event{}, err
	}
	defer fr.Release()
	return fr.Event(), nil
}

// drainUntil reads events off sub until it sees sequence head (inclusive)
// or goes idle.
func drainUntil(t *testing.T, sub *Subscriber, head uint64) []Event {
	t.Helper()
	var out []Event
	for {
		ev, err := nextTimeout(sub, 2*time.Second)
		if err == errIdle {
			return out
		}
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		out = append(out, ev)
		if ev.Seq >= head {
			return out
		}
	}
}

func eventJSON(t *testing.T, ev Event) string {
	t.Helper()
	b, err := json.Marshal(&ev)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJournalRoundTripAcrossRestart is the durability contract end to
// end: a broker journaling through an eventstore is closed, the store
// reopened, and a fresh broker serves the complete event history — raw
// MRT records, reconstructed UPDATE fields, and JSON-coded alerts all
// byte-equivalent — to FromStart and mid-sequence resumers.
func TestJournalRoundTripAcrossRestart(t *testing.T) {
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st1, err := eventstore.Open(eventstore.Options{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	b1 := NewBroker(Config{RingSize: 1 << 16, Journal: &StoreJournal{Store: st1}})
	sub1, _, err := b1.Subscribe(Filter{}, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(b1, data.Intervals, 0)
	for _, sr := range stream {
		pipe.Ingest(sr)
	}
	pipe.Flush(data.Config.TrackUntil)
	head := b1.Seq()
	if head == 0 {
		t.Fatal("nothing published")
	}
	live := drainUntil(t, sub1, head)
	if uint64(len(live)) != head {
		t.Fatalf("live subscriber saw %d events, want %d", len(live), head)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	b1.Close()

	// Restart: a new store over the same directory, a new broker that
	// continues numbering where the old one stopped.
	st2, err := eventstore.Open(eventstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.LastSeq() != head {
		t.Fatalf("recovered store at seq %d, want %d", st2.LastSeq(), head)
	}
	b2 := NewBroker(Config{RingSize: 1 << 16, Journal: &StoreJournal{Store: st2}, StartSeq: st2.LastSeq()})
	defer b2.Close()

	sub2, lost, err := b2.SubscribeFrom(Filter{}, PolicyBlock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("FromStart across restart lost %d events", lost)
	}
	got := drainUntil(t, sub2, head)
	if len(got) != len(live) {
		t.Fatalf("journal replay returned %d events, want %d", len(got), len(live))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("journal replay gap: event %d has seq %d", i, ev.Seq)
		}
		if want, g := eventJSON(t, live[i]), eventJSON(t, ev); want != g {
			t.Fatalf("event %d diverges after restart:\n live: %s\n got:  %s", i+1, want, g)
		}
	}

	// Mid-sequence resume serves the strict suffix.
	mid := head / 2
	sub3, lost, err := b2.SubscribeFrom(Filter{}, PolicyBlock, mid, false)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("mid resume lost %d events", lost)
	}
	suffix := drainUntil(t, sub3, head)
	if uint64(len(suffix)) != head-mid {
		t.Fatalf("mid resume returned %d events, want %d", len(suffix), head-mid)
	}
	if suffix[0].Seq != mid+1 {
		t.Fatalf("mid resume starts at %d, want %d", suffix[0].Seq, mid+1)
	}

	// New publishes keep numbering past the recovered head.
	if seq := b2.Publish(Event{Channel: ChannelUpdates, Type: TypeUpdate, Collector: "rrc00", Timestamp: time.Now()}); seq != head+1 {
		t.Fatalf("post-restart publish got seq %d, want %d", seq, head+1)
	}
}

// syntheticEvents builds raw-less update events that journal as KindJSON.
func syntheticEvents(n int) []Event {
	base := time.Date(2025, 5, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			Channel:   ChannelUpdates,
			Type:      TypeUpdate,
			Collector: "rrc00",
			Timestamp: base.Add(time.Duration(i) * time.Second),
			PeerAS:    bgp.ASN(64500 + i%3),
			Peer:      netip.MustParseAddr("192.0.2.1"),
			Withdrawals: []netip.Prefix{
				netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i%200)),
			},
		}
	}
	return out
}

// TestJournalServesEvictedWindow: events evicted from the in-memory
// replay ring are not lost when a journal backs the broker.
func TestJournalServesEvictedWindow(t *testing.T) {
	st, err := eventstore.Open(eventstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := NewBroker(Config{RingSize: 4096, ReplaySize: 8, Journal: &StoreJournal{Store: st}})
	defer b.Close()
	evs := syntheticEvents(200)
	for _, ev := range evs {
		b.Publish(ev)
	}
	sub, lost, err := b.SubscribeFrom(Filter{}, PolicyBlock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("journal-backed FromStart lost %d events", lost)
	}
	got := drainUntil(t, sub, 200)
	if len(got) != 200 {
		t.Fatalf("got %d events, want 200", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("gap at %d: seq %d", i, ev.Seq)
		}
	}
}

// TestJournalRetentionReportsLost: once the store's own retention drops
// old segments, only the truly unrecoverable prefix counts as lost and
// the stream picks up gap-free at the journal's horizon.
func TestJournalRetentionReportsLost(t *testing.T) {
	st, err := eventstore.Open(eventstore.Options{Dir: t.TempDir(), SegmentBytes: 4096, RetainBytes: 16384})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := NewBroker(Config{RingSize: 4096, ReplaySize: 8, Journal: &StoreJournal{Store: st}})
	defer b.Close()
	for _, ev := range syntheticEvents(600) {
		b.Publish(ev)
	}
	jFirst := st.FirstSeq()
	if jFirst <= 1 {
		t.Fatalf("retention never dropped a segment (first seq %d); shrink RetainBytes", jFirst)
	}
	sub, lost, err := b.SubscribeFrom(Filter{}, PolicyBlock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if lost != jFirst-1 {
		t.Fatalf("lost = %d, want %d (journal first seq %d)", lost, jFirst-1, jFirst)
	}
	got := drainUntil(t, sub, 600)
	if uint64(len(got)) != 600-(jFirst-1) {
		t.Fatalf("got %d events, want %d", len(got), 600-(jFirst-1))
	}
	next := jFirst
	for _, ev := range got {
		if ev.Seq != next {
			t.Fatalf("gap: seq %d, want %d", ev.Seq, next)
		}
		next++
	}
}

// TestJournalRetentionOvertakesCatchUp: a from-start catch-up that falls
// behind the store's retention horizon mid-way must end with ErrJournal,
// not skip the dropped range. The subscriber has read one event of its
// first 512-event journal batch when 8,000 more publishes make retention
// drop the segments its next batch starts in. It must get the rest of the
// batch it holds, then ErrJournal, and a resume from its last event must
// report the dropped range as lost.
func TestJournalRetentionOvertakesCatchUp(t *testing.T) {
	st, err := eventstore.Open(eventstore.Options{Dir: t.TempDir(), SegmentBytes: 4 << 10, RetainBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := NewBroker(Config{RingSize: 16384, ReplaySize: 8, Journal: &StoreJournal{Store: st}})
	defer b.Close()
	evs := syntheticEvents(12000)
	for _, ev := range evs[:4000] {
		b.Publish(ev)
	}
	sub, _, err := b.SubscribeFrom(Filter{}, PolicyBlock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	last := ev.Seq
	for _, ev := range evs[4000:] {
		b.Publish(ev)
	}
	for {
		ev, err := nextTimeout(sub, 2*time.Second)
		if err != nil {
			if !errors.Is(err, ErrJournal) {
				t.Fatalf("after seq %d: %v, want ErrJournal", last, err)
			}
			break
		}
		if ev.Seq != last+1 {
			t.Fatalf("silent gap: seq %d after %d (drops %d)", ev.Seq, last, sub.Drops())
		}
		last = ev.Seq
	}
	jFirst := st.FirstSeq()
	if last+1 >= jFirst {
		t.Fatalf("catch-up ended at seq %d, but the journal still holds %d on", last, jFirst)
	}
	resumed, lost, err := b.Subscribe(Filter{}, PolicyBlock, last)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if want := jFirst - 1 - last; lost != want {
		t.Fatalf("resume from %d: lost = %d, want %d (journal first seq %d)", last, lost, want, jFirst)
	}
}

// TestJournalSkipsUnencodableEvent: an event the broker cannot encode (a
// timestamp past year 9999) is a counted gap for live subscribers, and it
// must stay exactly that gap in the journal. It once went to disk as a JSON
// record with an empty payload, and every later catch-up across its
// sequence number, before and after a restart, died with ErrJournal.
func TestJournalSkipsUnencodableEvent(t *testing.T) {
	const n, bad = 20, 4
	evs := syntheticEvents(n)
	evs[bad-1].Timestamp = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	catchUp := func(b *Broker) {
		t.Helper()
		sub, lost, err := b.SubscribeFrom(Filter{}, PolicyBlock, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if lost != 0 {
			t.Fatalf("FromStart lost %d events", lost)
		}
		var seqs []uint64
		for _, ev := range drainUntil(t, sub, n) {
			seqs = append(seqs, ev.Seq)
		}
		var want []uint64
		for seq := uint64(1); seq <= n; seq++ {
			if seq != bad {
				want = append(want, seq)
			}
		}
		if fmt.Sprint(seqs) != fmt.Sprint(want) {
			t.Fatalf("catch-up delivered seqs %v, want %v", seqs, want)
		}
	}

	st1, err := eventstore.Open(eventstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b1 := NewBroker(Config{RingSize: 64, ReplaySize: 4, Journal: &StoreJournal{Store: st1}})
	for _, ev := range evs {
		b1.Publish(ev)
	}
	if got := b1.Metrics().encodeErrors.Value(); got != 1 {
		t.Fatalf("encode error counter = %d, want 1", got)
	}
	catchUp(b1)
	b1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal is durable: a restarted broker must serve the same gap.
	st2, err := eventstore.Open(eventstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.LastSeq() != n {
		t.Fatalf("recovered store at seq %d, want %d", st2.LastSeq(), n)
	}
	b2 := NewBroker(Config{RingSize: 64, ReplaySize: 4, Journal: &StoreJournal{Store: st2}, StartSeq: st2.LastSeq()})
	defer b2.Close()
	catchUp(b2)
}

// TestJournalGoesOnAfterRefusedEvent: an event the store refuses (a
// withdrawal of the zero prefix) is journaled as a gap, and the journal
// keeps every later event: a from-start catch-up, also after a restart,
// delivers all but the refused one.
func TestJournalGoesOnAfterRefusedEvent(t *testing.T) {
	const n, bad = 20, 2
	evs := syntheticEvents(n)
	evs[bad-1].Withdrawals = []netip.Prefix{{}}
	dir := t.TempDir()
	var want []uint64
	for seq := uint64(1); seq <= n; seq++ {
		if seq != bad {
			want = append(want, seq)
		}
	}
	catchUp := func(b *Broker) {
		t.Helper()
		sub, lost, err := b.SubscribeFrom(Filter{}, PolicyBlock, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		for _, ev := range drainUntil(t, sub, n) {
			seqs = append(seqs, ev.Seq)
		}
		if lost != 0 || fmt.Sprint(seqs) != fmt.Sprint(want) {
			t.Fatalf("catch-up delivered seqs %v (lost %d), want %v", seqs, lost, want)
		}
	}

	st1, err := eventstore.Open(eventstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b1 := NewBroker(Config{RingSize: 64, ReplaySize: 4, Journal: &StoreJournal{Store: st1}})
	for _, ev := range evs {
		b1.Publish(ev)
	}
	if got := b1.Metrics().journalErrors.Value(); got != 1 {
		t.Fatalf("journal error counter = %d, want 1", got)
	}
	if got := st1.LastSeq(); got != n {
		t.Fatalf("journal at seq %d, want %d", got, n)
	}
	catchUp(b1)
	b1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := eventstore.Open(eventstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2 := NewBroker(Config{RingSize: 64, ReplaySize: 4, Journal: &StoreJournal{Store: st2}, StartSeq: st2.LastSeq()})
	defer b2.Close()
	catchUp(b2)
}

// errJournal fails on demand, for error-path coverage.
type errJournal struct {
	appendErr error
	replayErr error
	last      uint64
}

func (j *errJournal) Append(ev Event, _ []byte) error {
	j.last = ev.Seq
	return j.appendErr
}

func (j *errJournal) Replay(fromSeq, toSeq uint64, fn func(Event) error) error {
	return j.replayErr
}

func (j *errJournal) FirstSeq() uint64 {
	if j.last == 0 {
		return 0
	}
	return 1
}

func (j *errJournal) LastSeq() uint64 { return j.last }

// TestJournalErrors: append failures never stall publishing (counted
// only), while an unreadable journal ends the resume catch-up with
// ErrJournal from Next rather than handing the client a silent gap.
func TestJournalErrors(t *testing.T) {
	j := &errJournal{appendErr: errors.New("disk full"), replayErr: errors.New("bad sector")}
	b := NewBroker(Config{ReplaySize: 4, Journal: j})
	defer b.Close()
	for _, ev := range syntheticEvents(50) {
		if seq := b.Publish(ev); seq == 0 {
			t.Fatal("publish failed under journal append error")
		}
	}
	if got := b.Metrics().journalErrors.Value(); got != 50 {
		t.Fatalf("journal error counter = %d, want 50", got)
	}
	sub, _, err := b.SubscribeFrom(Filter{}, PolicyDropOldest, 1, false)
	if err != nil {
		t.Fatalf("resume subscribe: %v", err)
	}
	if _, err := sub.Next(); !errors.Is(err, ErrJournal) {
		t.Fatalf("Next over unreadable journal = %v, want ErrJournal", err)
	} else if !strings.Contains(err.Error(), "bad sector") {
		t.Fatalf("journal error %v does not carry the underlying failure", err)
	}
	if got := b.Metrics().journalErrors.Value(); got != 51 {
		t.Fatalf("journal error counter = %d after failed catch-up, want 51", got)
	}
	if b.SubscriberCount() != 0 {
		t.Fatalf("failed subscriber left attached (%d)", b.SubscriberCount())
	}
}

// TestRecoverRebuildsDetector kills the pipeline mid-stream (store
// abandoned without a seal, as a crash would), recovers a fresh pipeline
// from the journal, resumes ingestion at ResumeOffset, and requires the
// union of pre-crash and post-recovery alerts to equal the batch
// detector's route set — detection unchanged by the crash.
func TestRecoverRebuildsDetector(t *testing.T) {
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&zombie.Detector{}).Detect(data.Updates, data.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	batch := make(map[routeKey]bool)
	for _, ob := range res.Outbreaks {
		for _, r := range ob.Routes {
			batch[routeKey{r.Peer, r.Prefix.String(), r.Interval.AnnounceAt.Unix(), r.Duplicate}] = true
		}
	}
	if len(batch) == 0 {
		t.Fatal("batch detector found no zombies; scenario too small")
	}

	dir := t.TempDir()
	st1, err := eventstore.Open(eventstore.Options{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	b1 := NewBroker(Config{RingSize: 1 << 16, Journal: &StoreJournal{Store: st1}})
	sub1, _, err := b1.Subscribe(Filter{Channels: []string{ChannelZombie}}, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe1 := NewPipeline(b1, data.Intervals, 0)
	mid := len(stream) / 2
	for _, sr := range stream[:mid] {
		pipe1.Ingest(sr)
	}
	preHead := b1.Seq()
	preAlerts := alertKeys(drainUntil(t, sub1, preHead))
	if err := st1.Abandon(); err != nil { // crash: no seal, no final fsync
		t.Fatal(err)
	}
	b1.Close()

	st2, err := eventstore.Open(eventstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2 := NewBroker(Config{RingSize: 1 << 16, Journal: &StoreJournal{Store: st2}, StartSeq: st2.LastSeq()})
	defer b2.Close()
	sub2, _, err := b2.Subscribe(Filter{Channels: []string{ChannelZombie}}, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe2 := NewPipeline(b2, data.Intervals, 0)
	n, err := pipe2.Recover(st2)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > mid {
		t.Fatalf("recovered %d records, want (0, %d]", n, mid)
	}
	offset := ResumeOffset(stream, n)
	for _, sr := range stream[offset:] {
		pipe2.Ingest(sr)
	}
	pipe2.Flush(data.Config.TrackUntil)
	postAlerts := alertKeys(drainUntil(t, sub2, b2.Seq()))

	got := make(map[routeKey]bool)
	for k := range preAlerts {
		got[k] = true
	}
	for k := range postAlerts {
		got[k] = true
	}
	if err := equalSets(batch, got); err != nil {
		t.Fatalf("crash-recovered detection diverges from batch: %v", err)
	}
}

// alertKeys projects zombie-channel events onto comparable route keys.
func alertKeys(evs []Event) map[routeKey]bool {
	out := make(map[routeKey]bool)
	for _, ev := range evs {
		if ev.Alert == nil {
			continue
		}
		out[routeKey{
			peer:      zombie.PeerID{Collector: ev.Collector, AS: ev.PeerAS, Addr: ev.Peer},
			prefix:    ev.Alert.Prefix.String(),
			interval:  ev.Alert.IntervalStart.Unix(),
			duplicate: ev.Alert.Duplicate,
		}] = true
	}
	return out
}

// sessionDown is a streamable record small enough to build inline.
func sessionDown(ts time.Time) *mrt.BGP4MPStateChange {
	return &mrt.BGP4MPStateChange{
		Timestamp: ts, PeerAS: 64500, LocalAS: 64501, AFI: bgp.AFIIPv4,
		PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
		OldState: mrt.StateEstablished, NewState: mrt.StateIdle,
	}
}

// TestStoredRecordRule: the three readers of a KindMRT payload — Recover,
// StoreJournal.Replay and zombie.BuildHistoryFromStore — apply one rule.
// The journal only ever writes streamable BGP4MP records, so a payload
// that is not exactly one BGP4MP message or state change fails every
// reader with an error naming the event's sequence number.
func TestStoredRecordRule(t *testing.T) {
	ts := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	encode := func(rec mrt.Record) []byte {
		var buf bytes.Buffer
		if err := mrt.NewWriter(&buf).Write(rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := encode(sessionDown(ts))
	edited := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		edit(b)
		return b
	}
	rows := []struct {
		name    string
		payload []byte
	}{
		{"short header", good[:mrt.HeaderLen-1]},
		{"oversize length", edited(func(b []byte) { binary.BigEndian.PutUint32(b[8:], mrt.MaxRecordLen+1) })},
		{"truncated body", good[:len(good)-1]},
		{"unmodelled type", edited(func(b []byte) { binary.BigEndian.PutUint16(b[4:], 99) })},
		{"peer index", encode(&mrt.PeerIndexTable{
			Timestamp: ts, CollectorID: netip.MustParseAddr("192.0.2.254"),
			Peers: []mrt.PeerEntry{{BGPID: netip.MustParseAddr("192.0.2.1"), Addr: netip.MustParseAddr("192.0.2.1"), AS: 64500}},
		})},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
		{"valid", nil}, // control: only the good record is journaled
	}
	readers := []struct {
		name string
		read func(*eventstore.Store) error
	}{
		{"Recover", func(st *eventstore.Store) error {
			b := NewBroker(Config{})
			defer b.Close()
			_, err := NewPipeline(b, nil, 0).Recover(st)
			return err
		}},
		{"StoreJournal.Replay", func(st *eventstore.Store) error {
			return (&StoreJournal{Store: st}).Replay(0, st.LastSeq(), func(Event) error { return nil })
		}},
		{"BuildHistoryFromStore", func(st *eventstore.Store) error {
			_, err := zombie.BuildHistoryFromStore(st, zombie.NewTrackSet(nil))
			return err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			st, err := eventstore.Open(eventstore.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			payloads := [][]byte{good}
			if row.payload != nil {
				payloads = append(payloads, row.payload)
			}
			for i, p := range payloads {
				if err := st.Append(eventstore.Event{Seq: uint64(i + 1), Time: ts, Collector: "rrc00", Kind: eventstore.KindMRT, Payload: p}); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range readers {
				err := r.read(st)
				switch {
				case row.payload == nil && err != nil:
					t.Errorf("%s over a valid journal: %v", r.name, err)
				case row.payload != nil && (err == nil || !strings.Contains(err.Error(), "event 2")):
					t.Errorf("%s: err = %v, want an error naming event 2", r.name, err)
				}
			}
		})
	}
}

// TestRecoverCountsRecordGaps: a record whose journal append failed reads
// back as a gap of KindMRT, and Recover counts it among the records the
// pre-crash run ingested, so ResumeOffset does not ingest it, or any
// record after it, a second time. The store writes the same gap for an
// append it refuses and for one whose write fails; a refused append makes
// it here.
func TestRecoverCountsRecordGaps(t *testing.T) {
	ts := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	var stream []SourcedRecord
	st, err := eventstore.Open(eventstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 4; i++ {
		rec := sessionDown(ts.Add(time.Duration(i) * time.Minute))
		stream = append(stream, SourcedRecord{Collector: "rrc00", Rec: rec})
		var buf bytes.Buffer
		if err := mrt.NewWriter(&buf).Write(rec); err != nil {
			t.Fatal(err)
		}
		ev := eventstore.Event{Seq: uint64(i + 1), Time: rec.Timestamp, Collector: "rrc00", Kind: eventstore.KindMRT, Payload: buf.Bytes()}
		if i == 1 || i == 2 {
			ev.Prefixes = []netip.Prefix{{}}
			if err := st.Append(ev); err == nil {
				t.Fatal("append with an invalid prefix succeeded")
			}
		} else if err := st.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBroker(Config{})
	defer b.Close()
	n, err := NewPipeline(b, nil, 0).Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(stream) {
		t.Fatalf("recovered %d records, want %d", n, len(stream))
	}
	if got := ResumeOffset(stream, n); got != len(stream) {
		t.Fatalf("resume offset %d would ingest %d journaled records again", got, len(stream)-got)
	}
}

// TestRecoverAllocs fences the restart path's allocation per recovered
// record: the journal is decoded borrowed straight off the segment
// mapping, so Recover must not pay a record-body buffer per record (the
// per-record Reader it replaced drew a fresh 16 KiB buffer each time).
func TestRecoverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := eventstore.Open(eventstore.Options{Dir: dir, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(Config{Journal: &StoreJournal{Store: st}})
	pipe := NewPipeline(b, data.Intervals, 0)
	for _, sr := range stream {
		pipe.Ingest(sr)
	}
	pipe.Flush(data.Config.TrackUntil)
	b.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = eventstore.Open(eventstore.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b = NewBroker(Config{})
	defer b.Close()
	pipe = NewPipeline(b, data.Intervals, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := pipe.Recover(st)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recovered no records")
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("Recover: %d records, %.0f B allocated per record", n, perRecord)
	if perRecord > 1024 {
		t.Errorf("Recover allocates %.0f B per recovered record, want under 1 KiB", perRecord)
	}
}

// TestEventRecordAllocs fences Event.Record: the caller keeps the record,
// so it owns its memory, but decoding it must not cost a pooled body
// buffer per call.
func TestEventRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	ev, ok := EventFromRecord("rrc00", sessionDown(time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)), true)
	if !ok || len(ev.Raw) == 0 {
		t.Fatal("state change did not produce a raw-carrying event")
	}
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := ev.Record(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	if perCall > 1024 {
		t.Errorf("Event.Record allocates %.0f B per call, want under 1 KiB", perCall)
	}
}
