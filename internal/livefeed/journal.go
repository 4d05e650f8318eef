package livefeed

import (
	"bytes"
	"encoding/json"
	"fmt"

	"zombiescope/internal/eventstore"
	"zombiescope/internal/mrt"
)

// Journal is the durable log a broker writes published events through.
// The broker appends every event under its publish lock (so journal order
// is sequence order) and reads ranges back when a subscriber resumes from
// a sequence number older than the in-memory replay window. FirstSeq and
// LastSeq bound what Replay can serve; FirstSeq 0 means the journal is
// empty.
type Journal interface {
	// Append durably records one published event. payload is the event's
	// shared encoding (json.Marshal(&ev) plus a trailing newline) aliasing
	// the broker's pooled frame buffer: it is valid only for the call, so
	// an implementation that retains it must copy it. It is nil when the
	// event could not be encoded; live subscribers see that sequence
	// number as a gap, and Replay must too. Called with the broker's
	// publish lock held: implementations must not call back into the
	// broker.
	Append(ev Event, payload []byte) error
	// Replay invokes fn for every journaled event with sequence number
	// in (fromSeq, toSeq], in order. The events passed to fn are fully
	// owned by the callee.
	Replay(fromSeq, toSeq uint64, fn func(Event) error) error
	// FirstSeq returns the oldest retained sequence number (0 if empty).
	FirstSeq() uint64
	// LastSeq returns the newest journaled sequence number (0 if empty),
	// counting an append that failed but took its sequence number:
	// Replay treats that one as a gap.
	LastSeq() uint64
}

// StoreJournal adapts an eventstore.Store into a broker Journal.
//
// Update-channel events that carry their raw MRT record are stored as
// KindMRT with the record bytes as the payload — the densest encoding,
// and the one recovery replays through the detector byte-faithfully.
// Everything else (alerts, raw-less events published through Publish) is
// stored as KindJSON with the broker's encoding as payload, or with no
// payload when the event could not be encoded.
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
	if ev.Channel == ChannelUpdates && len(ev.Raw) > 0 {
		se.Kind, se.Payload = eventstore.KindMRT, ev.Raw
	}
	return j.Store.Append(se)
}

// feedEvent converts a stored event back to the feed event that produced
// it. Stored events handed to Replay callbacks are fully owned, so the
// reconstruction can alias the payload, and dec may borrow it:
// EventFromRecord copies what it keeps of the record.
func feedEvent(dec *mrt.Decoder, se eventstore.Event) (Event, error) {
	switch se.Kind {
	case eventstore.KindMRT:
		rec, err := decodeRecord(dec, se.Seq, se.Payload)
		if err != nil {
			return Event{}, err
		}
		ev, _ := EventFromRecord(se.Collector, rec, false)
		ev.Seq = se.Seq
		ev.Raw = se.Payload
		return ev, nil
	case eventstore.KindJSON:
		var ev Event
		if err := json.Unmarshal(se.Payload, &ev); err != nil {
			return Event{}, fmt.Errorf("livefeed: journaled event %d: %w", se.Seq, err)
		}
		ev.Seq = se.Seq
		return ev, nil
	default:
		return Event{}, fmt.Errorf("livefeed: journaled event %d has unknown kind %d", se.Seq, se.Kind)
	}
}

// decodeRecord decodes the raw MRT record of event seq — a KindMRT
// payload or Event.Raw. Both are written only for streamable records, so
// anything but exactly one BGP4MP message or state change is an error.
func decodeRecord(dec *mrt.Decoder, seq uint64, raw []byte) (mrt.Record, error) {
	rec, err := dec.DecodeFramed(raw)
	if err != nil {
		return nil, fmt.Errorf("livefeed: event %d raw record: %w", seq, err)
	}
	if !Streamable(rec) {
		return nil, fmt.Errorf("livefeed: event %d raw record is not a BGP4MP message or state change", seq)
	}
	return rec, nil
}

// Replay implements Journal.
func (j *StoreJournal) Replay(fromSeq, toSeq uint64, fn func(Event) error) error {
	dec := mrt.Decoder{Borrow: true}
	return j.Store.Replay(fromSeq, toSeq, func(se eventstore.Event) error {
		if len(se.Payload) == 0 {
			return nil // a gap: unencodable when published, or its append failed
		}
		ev, err := feedEvent(&dec, se)
		if err != nil {
			return err
		}
		return fn(ev)
	})
}

// FirstSeq implements Journal.
func (j *StoreJournal) FirstSeq() uint64 { return j.Store.FirstSeq() }

// LastSeq implements Journal.
func (j *StoreJournal) LastSeq() uint64 { return j.Store.LastSeq() }

var _ Journal = (*StoreJournal)(nil)
