package livefeed

import (
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
	// Append durably records one published event. Called with the
	// broker's publish lock held: implementations must not call back
	// into the broker.
	Append(ev Event) error
	// Replay invokes fn for every journaled event with sequence number
	// in (fromSeq, toSeq], in order. The events passed to fn are fully
	// owned by the callee.
	Replay(fromSeq, toSeq uint64, fn func(Event) error) error
	// FirstSeq returns the oldest retained sequence number (0 if empty).
	FirstSeq() uint64
	// LastSeq returns the newest journaled sequence number (0 if empty).
	LastSeq() uint64
}

// EncodedJournal is an optional Journal extension: a journal that can
// reuse the broker's shared encoding instead of re-marshalling the
// event. payload is the frame's NDJSON payload (json.Marshal(&ev) plus a
// trailing newline) aliasing the broker's pooled frame buffer — it is
// valid only for the duration of the call, so implementations must copy
// it before returning if they retain it.
type EncodedJournal interface {
	Journal
	// AppendEncoded durably records one published event whose JSON
	// encoding is already available. Called with the broker's publish
	// lock held, same contract as Append.
	AppendEncoded(ev Event, payload []byte) error
}

// StoreJournal adapts an eventstore.Store into a broker Journal.
//
// Update-channel events that carry their raw MRT record are stored as
// KindMRT with the record bytes as the payload — the densest encoding,
// and the one recovery replays through the detector byte-faithfully.
// Everything else (alerts, raw-less events published through Publish) is
// stored as KindJSON with the JSON-encoded event as payload.
type StoreJournal struct {
	Store *eventstore.Store
}

// Append implements Journal.
func (j *StoreJournal) Append(ev Event) error {
	return j.Store.Append(storeEvent(ev))
}

// AppendEncoded implements EncodedJournal: KindJSON events reuse the
// broker's shared encoding (minus the NDJSON trailing newline) instead
// of marshalling again. The store copies the payload into its segment
// buffer before Append returns, so aliasing the pooled frame buffer is
// safe under the broker's publish lock. KindMRT events (raw-carrying
// updates) store the MRT bytes and never needed the JSON encoding.
func (j *StoreJournal) AppendEncoded(ev Event, payload []byte) error {
	if ev.Channel == ChannelUpdates && len(ev.Raw) > 0 {
		return j.Store.Append(storeEvent(ev))
	}
	se := eventstore.Event{
		Seq:       ev.Seq,
		Time:      ev.Timestamp,
		Collector: ev.Collector,
		PeerAS:    uint32(ev.PeerAS),
		PeerAddr:  ev.Peer,
		Prefixes:  ev.Prefixes(),
		Kind:      eventstore.KindJSON,
	}
	if n := len(payload); n > 0 && payload[n-1] == '\n' {
		payload = payload[:n-1]
	}
	se.Payload = payload
	return j.Store.Append(se)
}

// storeEvent converts a feed event to its on-disk representation.
func storeEvent(ev Event) eventstore.Event {
	se := eventstore.Event{
		Seq:       ev.Seq,
		Time:      ev.Timestamp,
		Collector: ev.Collector,
		PeerAS:    uint32(ev.PeerAS),
		PeerAddr:  ev.Peer,
		Prefixes:  ev.Prefixes(),
	}
	if ev.Channel == ChannelUpdates && len(ev.Raw) > 0 {
		se.Kind = eventstore.KindMRT
		se.Payload = ev.Raw
		return se
	}
	se.Kind = eventstore.KindJSON
	se.Payload, _ = json.Marshal(&ev)
	return se
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

var _ EncodedJournal = (*StoreJournal)(nil)
