package zombie

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
)

// eventKind classifies a history event.
type eventKind uint8

const (
	evAnnounce eventKind = iota
	evWithdraw
	evSessionDown
	evSessionUp
)

// histEvent is one state-relevant event for a (peer, prefix).
type histEvent struct {
	at    time.Time
	order int // archive position, breaks same-second ties
	kind  eventKind
	path  bgp.ASPath
	agg   *bgp.Aggregator
	comms []bgp.Community // nil when the announcement carried none
}

// History is the reconstructed message-level state of every tracked
// (peer, prefix) pair, the substrate of the revised methodology.
//
// The store is columnar: peers and prefixes are canonicalized to dense
// sorted indices, every (peer, prefix) event stream is a contiguous span
// of one shared arena (laid out in ascending pairKey order), and session
// events live in a parallel arena spanned per peer. The layout is built by
// sealHistory in columnar.go and is identical no matter how many builders
// produced the events. The ref field, when set, swaps in the original
// map-of-maps store (refstore.go) as a differential oracle.
type History struct {
	peers     []PeerID
	prefixes  []netip.Prefix
	peerIdx   map[PeerID]uint32
	prefixIdx map[netip.Prefix]uint32
	events    []histEvent     // pair-event arena
	pairs     map[uint64]span // pairKey -> slice of events
	pairKeys  []uint64        // sorted pair keys: the arena's span order
	sess      []histEvent     // session-event arena
	sessSpans []span          // indexed by peer index; zero span = none
	ref       *refHistory     // non-nil only for BuildHistoryReference
}

// TrackSet selects the prefixes worth reconstructing (beacon prefixes).
// A nil TrackSet tracks every prefix seen in the archives — the mode the
// anomaly detectors run in, since MOAS conflicts and hyper-specific leaks
// by definition involve prefixes no beacon schedule names.
type TrackSet map[netip.Prefix]bool

// tracks reports whether p should be reconstructed (nil = track all).
func (ts TrackSet) tracks(p netip.Prefix) bool {
	return ts == nil || ts[p]
}

// NewTrackSet builds a TrackSet from prefixes.
func NewTrackSet(prefixes []netip.Prefix) TrackSet {
	ts := make(TrackSet, len(prefixes))
	for _, p := range prefixes {
		ts[p] = true
	}
	return ts
}

// BuildHistory parses MRT update archives (one per collector, keyed by
// collector name) and reconstructs per-(peer, prefix) event histories for
// the tracked prefixes. Records of other prefixes are ignored.
func BuildHistory(updates map[string][]byte, track TrackSet) (*History, error) {
	return BuildHistoryParallel(updates, track, 0)
}

// BuildHistoryParallel is BuildHistory with the given pipeline worker
// count: each archive is a one-segment stream of BuildHistoryStreams.
func BuildHistoryParallel(updates map[string][]byte, track TrackSet, parallelism int) (*History, error) {
	return BuildHistoryStreams(oneSegmentStreams(updates), track, parallelism)
}

// oneSegmentStreams presents whole in-memory archives as segmented streams.
func oneSegmentStreams(updates map[string][]byte) map[string][][]byte {
	streams := make(map[string][][]byte, len(updates))
	for name, data := range updates {
		streams[name] = [][]byte{data}
	}
	return streams
}

// BuildHistoryStreams builds the History of segmented streams: each
// collector's value is an ordered list of MRT segments (e.g. the mmapped
// rotated files of archive.OpenMapped) forming one logical stream, never
// copied together. The pipeline engine decodes the streams concurrently in
// record-aligned chunks, borrowing the archive bytes; every chunk observes
// its records into its own HistoryBuilder, and the chunk builders are
// sealed in (file, chunk) order — sealHistory's seal-order invariant — so
// the History is identical for any segmentation and any parallelism
// (<= 0 decodes inline on one worker).
func BuildHistoryStreams(streams map[string][][]byte, track TrackSet, parallelism int) (*History, error) {
	if parallelism <= 0 {
		parallelism = 1
	}
	sp := obs.StartSpan("zombie.build_history")
	sp.SetArg("collectors", len(streams))
	sp.SetArg("workers", parallelism)
	defer sp.End()
	e := &pipeline.Engine{Workers: parallelism, Trace: sp, Borrow: true}
	_, chunks, err := pipeline.FoldStreams(e, streams,
		func(pipeline.FileChunk) *HistoryBuilder { return NewHistoryBuilder(track) },
		func(b *HistoryBuilder, fc pipeline.FileChunk, idx int, rec mrt.Record) error {
			// The record's position across the whole archive set, so the
			// same-second tie-break does not depend on where chunks fall
			// (idx also counts the record types the decoder skips).
			b.order = fc.FileBase + idx
			return b.Observe(fc.Name, rec)
		})
	if err != nil {
		return nil, wrapFileError(err)
	}
	var builders []*HistoryBuilder
	for _, file := range chunks {
		builders = append(builders, file...)
	}
	sp.SetArg("builders", len(builders))

	m := pipeline.Default
	mergeStart := time.Now()
	mergeSp := sp.Start("zombie.merge")
	h := sealHistory(builders)
	mergeSp.End()
	m.AddMerged(len(builders))
	m.ObserveMerge(time.Since(mergeStart))
	m.SyncHotPath()
	return h, nil
}

// wrapFileError rewraps a pipeline position error into BuildHistory's
// error shape.
func wrapFileError(err error) error {
	var fe *pipeline.FileError
	if errors.As(err, &fe) {
		return fmt.Errorf("zombie: collector %s: %w", fe.Name, fe.Err)
	}
	return err
}

// recordEvents converts one update-file record into its history events.
// It is shared by HistoryBuilder.Observe and the reference builder so the
// two cannot drift: only the store (and the decode mode) differs, never
// the per-record semantics. Within one record, withdrawals are emitted
// before announcements — the tie the stable event sort preserves.
//
// With scratch non-nil the BGP message is decoded zero-copy into the
// scratch workspace with interned AS paths and aggregators; the update is
// only valid until the next call, but everything stored into histEvents
// (interned path/agg, prefix values) is retention-safe. With scratch nil
// the original fully-allocating decode runs.
func recordEvents(name string, order int, rec mrt.Record, track TrackSet, scratch *bgp.Scratch,
	prefixEv func(peer PeerID, p netip.Prefix, ev histEvent),
	sessionEv func(peer PeerID, ev histEvent),
) error {
	switch r := rec.(type) {
	case *mrt.BGP4MPMessage:
		peer := PeerID{Collector: name, AS: r.PeerAS, Addr: r.PeerIP}
		var u *bgp.Update
		var err error
		if scratch != nil {
			u, err = scratch.DecodeUpdate(r.Data, bgp.DecodeBorrow|bgp.DecodeIntern)
		} else {
			u, err = r.Update()
		}
		if err != nil {
			return err
		}
		// Withdrawals before announcements; within each, top-level routes
		// before MP attributes — the same order WithdrawnAll/Announced
		// return, without materializing the combined slices.
		for _, p := range u.Withdrawn {
			if track.tracks(p) {
				prefixEv(peer, p, histEvent{at: r.Timestamp, order: order, kind: evWithdraw})
			}
		}
		if u.Attrs.MPUnreach != nil {
			for _, p := range u.Attrs.MPUnreach.Withdrawn {
				if track.tracks(p) {
					prefixEv(peer, p, histEvent{at: r.Timestamp, order: order, kind: evWithdraw})
				}
			}
		}
		annEv := histEvent{
			at:    r.Timestamp,
			order: order,
			kind:  evAnnounce,
			path:  u.Attrs.ASPath,
			agg:   u.Attrs.Aggregator,
			comms: cloneCommunities(u.Attrs.Communities),
		}
		for _, p := range u.NLRI {
			if track.tracks(p) {
				prefixEv(peer, p, annEv)
			}
		}
		if u.Attrs.MPReach != nil {
			for _, p := range u.Attrs.MPReach.NLRI {
				if track.tracks(p) {
					prefixEv(peer, p, annEv)
				}
			}
		}
	case *mrt.BGP4MPStateChange:
		peer := PeerID{Collector: name, AS: r.PeerAS, Addr: r.PeerIP}
		kind := evSessionUp
		if r.Down() {
			kind = evSessionDown
		} else if !r.Up() {
			return nil
		}
		sessionEv(peer, histEvent{at: r.Timestamp, order: order, kind: kind})
	}
	return nil
}

// cloneCommunities copies a decoded community list for retention. The
// scratch decoder reuses its Communities backing array across records, so
// anything stored into the arena must be copied out. Empty lists map to
// nil: records without communities stay allocation-free (the alloc fence
// counts on it) and both decode modes produce the same stored value.
func cloneCommunities(cs []bgp.Community) []bgp.Community {
	if len(cs) == 0 {
		return nil
	}
	out := make([]bgp.Community, len(cs))
	copy(out, cs)
	return out
}

// pairEvents returns the time-ordered event stream of (peer, p).
func (h *History) pairEvents(peer PeerID, p netip.Prefix) []histEvent {
	if h.ref != nil {
		return h.ref.events[peer][p]
	}
	pi, ok := h.peerIdx[peer]
	if !ok {
		return nil
	}
	xi, ok := h.prefixIdx[p]
	if !ok {
		return nil
	}
	sp, ok := h.pairs[pairKey(pi, xi)]
	if !ok {
		return nil
	}
	return h.events[sp.off : sp.off+sp.n]
}

// sessionEvents returns the time-ordered session stream of peer.
func (h *History) sessionEvents(peer PeerID) []histEvent {
	if h.ref != nil {
		return h.ref.session[peer]
	}
	pi, ok := h.peerIdx[peer]
	if !ok {
		return nil
	}
	sp := h.sessSpans[pi]
	return h.sess[sp.off : sp.off+sp.n]
}

// Peers returns every peer seen in the archives, sorted.
func (h *History) Peers() []PeerID {
	if h.ref != nil {
		return h.ref.peers
	}
	return h.peers
}

// State is the reconstructed status of a (peer, prefix) at an instant.
type State struct {
	Present bool
	// Path/Agg/At describe the last announcement when Present.
	Path bgp.ASPath
	Agg  *bgp.Aggregator
	At   time.Time
	// LastEvent is the time of the last event of any kind before the
	// query instant (zero if none).
	LastEvent time.Time
}

// StateAt reconstructs the state of (peer, prefix) at time t, honoring
// session downs (a down clears the route: a dead session cannot host a
// zombie) and ignoring events at or after t.
func (h *History) StateAt(peer PeerID, p netip.Prefix, t time.Time) State {
	return stateAtMerged(h.pairEvents(peer, p), h.sessionEvents(peer), t)
}

// stateAtMerged walks a pair stream and a session stream merged in event
// order, stopping at t.
func stateAtMerged(evs, sess []histEvent, t time.Time) State {
	var st State
	i, j := 0, 0
	for i < len(evs) || j < len(sess) {
		var ev histEvent
		takeSess := false
		switch {
		case i >= len(evs):
			ev, takeSess = sess[j], true
		case j >= len(sess):
			ev = evs[i]
		default:
			a, b := evs[i], sess[j]
			if b.at.Before(a.at) || (b.at.Equal(a.at) && b.order < a.order) {
				ev, takeSess = b, true
			} else {
				ev = a
			}
		}
		if !ev.at.Before(t) {
			break
		}
		if takeSess {
			j++
			if ev.kind == evSessionDown {
				st = State{LastEvent: ev.at}
			}
			continue
		}
		i++
		st.LastEvent = ev.at
		switch ev.kind {
		case evAnnounce:
			st.Present = true
			st.Path = ev.path
			st.Agg = ev.agg
			st.At = ev.at
		case evWithdraw:
			st.Present = false
			st.Path = bgp.ASPath{}
			st.Agg = nil
		}
	}
	return st
}

// stateAtIgnoringSessions reconstructs state without honoring session
// downs, as the legacy pipeline did.
func (h *History) stateAtIgnoringSessions(peer PeerID, p netip.Prefix, t time.Time) State {
	var st State
	for _, ev := range h.pairEvents(peer, p) {
		if !ev.at.Before(t) {
			break
		}
		st.LastEvent = ev.at
		switch ev.kind {
		case evAnnounce:
			st.Present = true
			st.Path = ev.path
			st.Agg = ev.agg
			st.At = ev.at
		case evWithdraw:
			st.Present = false
		}
	}
	return st
}

// SeenAnnounced reports whether any peer announced p within [from, to).
func (h *History) SeenAnnounced(p netip.Prefix, from, to time.Time) bool {
	if h.ref != nil {
		return h.ref.seenAnnounced(p, from, to)
	}
	xi, ok := h.prefixIdx[p]
	if !ok {
		return false
	}
	for pi := range h.peers {
		sp, ok := h.pairs[pairKey(uint32(pi), xi)]
		if !ok {
			continue
		}
		for _, ev := range h.events[sp.off : sp.off+sp.n] {
			if ev.kind == evAnnounce && !ev.at.Before(from) && ev.at.Before(to) {
				return true
			}
		}
	}
	return false
}
