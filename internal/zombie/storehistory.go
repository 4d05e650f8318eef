package zombie

import (
	"fmt"

	"zombiescope/internal/eventstore"
	"zombiescope/internal/mrt"
)

// BuildHistoryFromStore reconstructs per-(peer, prefix) event histories
// for the tracked prefixes straight from a durable event store, the
// month-scale analogue of BuildHistory over in-memory archives: segments
// stream through the zero-copy Scan path, each KindMRT payload is decoded
// borrowed and observed into one HistoryBuilder, and only the interned
// history events survive the walk.
//
// The store orders events by publish sequence — the time-merged order of
// the original collector streams. Every (peer, prefix) pair and every
// peer session belongs to a single collector, and the merge preserves
// each collector's relative record order, so the per-pair and per-session
// event streams (and therefore every StateAt reconstruction) are
// identical to what BuildHistory derives from the raw archives.
func BuildHistoryFromStore(st *eventstore.Store, track TrackSet) (*History, error) {
	b := NewHistoryBuilder(track)
	dec := mrt.Decoder{Borrow: true}
	err := st.Scan(eventstore.Query{Kind: eventstore.KindMRT}, func(se eventstore.Event) error {
		rec, err := decodeStoredRecord(&dec, se.Payload)
		if err != nil {
			return fmt.Errorf("zombie: stored event %d: %w", se.Seq, err)
		}
		if rec == nil {
			return nil // record type this package does not model
		}
		if err := b.Observe(se.Collector, rec); err != nil {
			return fmt.Errorf("zombie: stored event %d: %w", se.Seq, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Seal(), nil
}

// decodeStoredRecord decodes the single framed MRT record a KindMRT
// payload holds, borrowing the payload bytes (valid only until the next
// decode — exactly the Scan callback contract).
func decodeStoredRecord(dec *mrt.Decoder, payload []byte) (mrt.Record, error) {
	if len(payload) < mrt.HeaderLen {
		return nil, fmt.Errorf("payload shorter than an MRT header (%d bytes)", len(payload))
	}
	var h [mrt.HeaderLen]byte
	copy(h[:], payload)
	ts, typ, subtype, length := mrt.ParseHeader(h)
	if int64(len(payload)) < int64(mrt.HeaderLen)+int64(length) {
		return nil, fmt.Errorf("MRT body truncated: header says %d bytes, payload has %d", length, len(payload)-mrt.HeaderLen)
	}
	return dec.Decode(ts, typ, subtype, payload[mrt.HeaderLen:mrt.HeaderLen+int(length)])
}
