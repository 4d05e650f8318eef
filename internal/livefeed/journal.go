package livefeed

import (
	"bytes"

	"zombiescope/internal/eventstore"
)

// Journal is the durable log a broker writes published events through.
// The broker appends every event under its publish lock (so journal order
// is sequence order) and reads ranges back when a subscriber resumes from
// a sequence number older than the in-memory replay window. FirstSeq and
// LastSeq bound what Replay can serve; FirstSeq 0 means the journal is
// empty.
type Journal interface {
	// Append durably records one published event. An update event
	// carrying its MRT record (Raw) is journaled as that record, and
	// payload is nil. For any other event payload is its Event frame's
	// encoding (json.Marshal(&ev) plus a trailing newline) aliasing the
	// broker's pooled frame buffer: it is valid only for the call, so an
	// implementation that retains it must copy it. It is nil as well when
	// such an event could not be encoded; live subscribers see that
	// sequence number as a gap, and Replay must too. Called with the
	// broker's publish lock held: implementations must not call back into
	// the broker.
	Append(ev Event, payload []byte) error
	// Replay invokes fn for every journaled sequence number in
	// (fromSeq, toSeq], in order, with the event as stored: an update
	// event carrying its record as KindMRT with the raw record as
	// payload, any other event as KindJSON with its JSON encoding (no
	// trailing newline), a gap with no payload; Collector, PeerAS,
	// PeerAddr and Prefixes (Event.Prefixes) as the event had them. The
	// event's payload and prefixes may alias journal memory valid only
	// for the call. The broker filters on those columns and copies the
	// payload into a catch-up frame, so a subscriber taking Record frames
	// is caught up without decoding a record.
	Replay(fromSeq, toSeq uint64, fn func(eventstore.Event) error) error
	// FirstSeq returns the oldest retained sequence number (0 if empty).
	FirstSeq() uint64
	// LastSeq returns the newest journaled sequence number (0 if empty),
	// counting an append that failed but took its sequence number:
	// Replay treats that one as a gap.
	LastSeq() uint64
}

// StoreJournal adapts an eventstore.Store into a broker Journal: events
// are stored as Journal.Replay gives them back, so Replay is the store's
// own Replay.
type StoreJournal struct {
	Store *eventstore.Store
}

// Append implements Journal. The store copies the payload into its
// segment buffer before Append returns, so aliasing the pooled frame
// buffer is safe under the broker's publish lock.
func (j *StoreJournal) Append(ev Event, payload []byte) error {
	se := eventstore.Event{
		Seq:       ev.Seq,
		Time:      ev.Timestamp,
		Collector: ev.Collector,
		PeerAS:    uint32(ev.PeerAS),
		PeerAddr:  ev.Peer,
		Prefixes:  ev.Prefixes(),
		Kind:      eventstore.KindJSON,
		Payload:   bytes.TrimSuffix(payload, []byte{'\n'}),
	}
	if ev.hasRecord() {
		se.Kind, se.Payload = eventstore.KindMRT, ev.Raw
	}
	return j.Store.Append(se)
}

// Replay implements Journal.
func (j *StoreJournal) Replay(fromSeq, toSeq uint64, fn func(eventstore.Event) error) error {
	return j.Store.Replay(fromSeq, toSeq, fn)
}

// FirstSeq implements Journal.
func (j *StoreJournal) FirstSeq() uint64 { return j.Store.FirstSeq() }

// LastSeq implements Journal.
func (j *StoreJournal) LastSeq() uint64 { return j.Store.LastSeq() }

var _ Journal = (*StoreJournal)(nil)
