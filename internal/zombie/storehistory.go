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
// history events survive the walk. A payload that is not exactly one
// BGP4MP message or state change is an error: the journal never writes
// anything else.
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
		rec, err := dec.DecodeFramed(se.Payload)
		if err != nil {
			return fmt.Errorf("zombie: stored event %d: %w", se.Seq, err)
		}
		switch rec.(type) {
		case *mrt.BGP4MPMessage, *mrt.BGP4MPStateChange:
		default:
			return fmt.Errorf("zombie: stored event %d is not a BGP4MP message or state change", se.Seq)
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
