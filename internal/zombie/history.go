package zombie

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/beacon"
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

// histEvent is one state-relevant event for a (peer, prefix), decoded: what
// recordEvents emits and State.fold consumes. The columnar store keeps the
// packed row instead (columnar.go).
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
// The store is columnar: peers, prefixes, AS paths and aggregators are
// canonicalized to dense sorted indices, every (peer, prefix) event stream
// is a contiguous span of packed rows in its collector's arena (spans laid
// out in ascending pairKey order; a pair never spans collectors), and
// session events live in a parallel arena spanned per peer. The layout is built by sealHistory in columnar.go and
// is identical no matter how many builders produced the events.
type History struct {
	peers      []PeerID
	prefixes   []netip.Prefix
	prefixIdx  map[netip.Prefix]uint32
	paths      []bgp.ASPath      // what row.path indexes; [0] is the empty path
	aggs       []*bgp.Aggregator // what row.agg indexes; [0] is nil
	comms      []bgp.Community   // community arena: per pair, in stream order
	arenas     [][]row           // pair-event arenas, one per collector
	arenaPairs []uint32          // the first pair number of each arena
	pairKeys   []uint64          // sorted pair keys: the arenas' span order
	spans      []span            // parallel to pairKeys; offsets within the pair's arena
	byPrefix   []uint32          // pair numbers grouped by prefix, ascending peer within
	prefixOff  []uint32          // prefix xi's pairs are byPrefix[prefixOff[xi]:prefixOff[xi+1]]
	sess       []row             // session-event arena
	sessSpans  []span            // indexed by peer index; zero span = none
}

// TrackSet selects the prefixes worth reconstructing (beacon prefixes):
// those it maps to true. A nil TrackSet tracks every prefix seen in the
// archives — the mode the anomaly detectors run in, since MOAS conflicts
// and hyper-specific leaks by definition involve prefixes no beacon
// schedule names.
//
// A build or a detector reads its TrackSet once, when it starts, into an
// open-addressed set that answers for a prefix in one probe. With a
// non-nil TrackSet a record none of whose prefixes is tracked is validated
// — it fails exactly as it would under a nil TrackSet — but not
// materialized: its AS path, aggregator and communities are never
// interned, hashed or copied.
type TrackSet map[netip.Prefix]bool

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
// its records into its own HistoryBuilder, numbering them within the
// chunk, and once the fold has bound the chunks' positions the builders
// are sealed in (file, chunk) order — sealHistory's seal-order invariant —
// so the History is identical for any segmentation and any parallelism
// (0 or 1: one inline worker).
func BuildHistoryStreams(streams map[string][][]byte, track TrackSet, parallelism int) (*History, error) {
	sp := obs.StartSpan("zombie.build_history")
	defer sp.End()
	e := engine(parallelism, sp)
	e.Borrow = true
	sp.SetArg("collectors", len(streams))
	sp.SetArg("workers", e.Workers)
	tracked := track.prepare()
	_, chunks, err := pipeline.FoldStreams(e, streams,
		func(fc pipeline.FileChunk) *HistoryBuilder {
			b := newHistoryBuilder(tracked)
			b.dropOnSeal, b.chunk = true, fc
			return b
		},
		func(b *HistoryBuilder, fc pipeline.FileChunk, idx int, rec mrt.Record) error {
			// The record's position within the chunk (idx also counts the
			// record types the decoder skips); bindPositions adds the
			// chunk's base once the fold has counted it.
			b.order = idx
			return b.Observe(fc.Name, rec)
		})
	var builders []*HistoryBuilder
	for _, file := range chunks {
		builders = append(builders, file...)
	}
	if err = bindPositions(builders, err); err != nil {
		return nil, err
	}
	sp.SetArg("builders", len(builders))

	m := pipeline.Default
	mergeStart := time.Now()
	mergeSp := sp.Start("zombie.merge")
	h, sorted, err := sealHistory(e, builders)
	if err != nil {
		mergeSp.End()
		return nil, err
	}
	mergeSp.SetArg("events", h.Events())
	mergeSp.SetArg("pairs", len(h.pairKeys))
	mergeSp.SetArg("builders", len(builders))
	mergeSp.SetArg("spans_sorted", sorted)
	mergeSp.End()
	m.AddMerged(len(builders))
	m.ObserveMerge(time.Since(mergeStart))
	return h, nil
}

// bindPositions gives every chunk builder its chunk's position across the
// whole archive set, so the same-second tie-break does not depend on where
// chunks fall, and returns BuildHistory's error: the fold's error, or
// ErrHistoryTooLarge where a record's position passes maxHistory first.
// Builders come in (file, chunk) order, so the first whose last position
// is past the bound holds the first record past it; a fold error wins
// only in an earlier chunk, since a chunk stops at its own error. Files
// are in name order.
func bindPositions(builders []*HistoryBuilder, err error) error {
	var fe *pipeline.FileError
	if err != nil && !errors.As(err, &fe) {
		return err
	}
	for _, b := range builders {
		base := b.chunk.FileBase() + b.chunk.Base()
		if uint64(base)+uint64(b.order) > maxHistory {
			if fe == nil || fe.Name > b.chunk.Name || fe.Name == b.chunk.Name && fe.Record >= b.chunk.Base() {
				fe = &pipeline.FileError{Name: b.chunk.Name, Err: ErrHistoryTooLarge}
			}
			break
		}
		b.base = uint32(base)
	}
	if fe != nil {
		return fmt.Errorf("zombie: collector %s: %w", fe.Name, fe.Err)
	}
	return nil
}

// recordEvents converts one update-file record into its history events.
// It is shared by HistoryBuilder.Observe, StreamDetector.Observe and the
// reference builder so they cannot drift: only the store differs, never
// the per-record semantics or the decode. Within one record, withdrawals
// are emitted before announcements — the tie the stable event sort
// preserves.
//
// The BGP message is decoded zero-copy into the scratch workspace with
// interned AS paths and aggregators; the update is only valid until the
// next call on the same scratch, so an emitted event's comms alias the
// workspace and must be copied by a callback that keeps them (its interned
// path/agg and prefix values are retention-safe). Under a track set
// (track non-nil) the decode is deferred: an update carrying no tracked
// prefix is validated, its attributes are not materialized, and it emits
// nothing.
func recordEvents(name string, order int, rec mrt.Record, track *trackIndex, scratch *bgp.Scratch,
	prefixEv func(peer PeerID, p netip.Prefix, ev histEvent),
	sessionEv func(peer PeerID, ev histEvent),
) error {
	switch r := rec.(type) {
	case *mrt.BGP4MPMessage:
		peer := PeerID{Collector: name, AS: r.PeerAS, Addr: r.PeerIP}
		df := bgp.DecodeBorrow | bgp.DecodeIntern | r.DecodeFlags()
		var u *bgp.Update
		var err error
		if track != nil {
			u, err = scratch.DecodeUpdateIf(r.Data, df, track.has)
		} else {
			u, err = scratch.DecodeUpdate(r.Data, df)
		}
		if u == nil {
			return err // nil: no tracked prefix
		}
		// Withdrawals before announcements; within each, top-level routes
		// before MP attributes — the same order WithdrawnAll/Announced
		// return, without materializing the combined slices.
		var mpWithdrawn, mpNLRI []netip.Prefix
		if u.Attrs.MPUnreach != nil {
			mpWithdrawn = u.Attrs.MPUnreach.Withdrawn
		}
		if u.Attrs.MPReach != nil {
			mpNLRI = u.Attrs.MPReach.NLRI
		}
		for _, ps := range [2][]netip.Prefix{u.Withdrawn, mpWithdrawn} {
			for _, p := range ps {
				if track.has(p) {
					prefixEv(peer, p, histEvent{at: r.Timestamp, order: order, kind: evWithdraw})
				}
			}
		}
		annEv := histEvent{at: r.Timestamp, order: order, kind: evAnnounce, path: u.Attrs.ASPath, agg: u.Attrs.Aggregator}
		if len(u.Attrs.Communities) > 0 { // nil when the announcement carried none
			annEv.comms = u.Attrs.Communities
		}
		for _, ps := range [2][]netip.Prefix{u.NLRI, mpNLRI} {
			for _, p := range ps {
				if track.has(p) {
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

// event decodes a stored row back into the form recordEvents emitted.
func (h *History) event(r *row, ev *histEvent) {
	*ev = histEvent{at: r.time(), order: int(r.order), kind: r.kind, path: h.paths[r.path], agg: h.aggs[r.agg], comms: h.rowComms(r)}
}

// rowComms returns a row's communities, nil when it carried none.
func (h *History) rowComms(r *row) []bgp.Community {
	if r.commN == 0 {
		return nil
	}
	return h.comms[r.commOff:][:r.commN]
}

// spanRows returns the time-ordered event stream of pair number ki, the
// pair of pairKeys[ki].
func (h *History) spanRows(ki int) []row {
	a := sort.Search(len(h.arenaPairs), func(i int) bool { return int(h.arenaPairs[i]) > ki }) - 1
	sp := h.spans[ki]
	return h.arenas[a][sp.off : sp.off+sp.n]
}

// sessRows returns the time-ordered session stream of peer pi.
func (h *History) sessRows(pi uint32) []row {
	sp := h.sessSpans[pi]
	return h.sess[sp.off : sp.off+sp.n]
}

// prefixPairs returns the pair numbers of prefix xi, in ascending peer order.
func (h *History) prefixPairs(xi uint32) []uint32 {
	return h.byPrefix[h.prefixOff[xi]:h.prefixOff[xi+1]]
}

// Events returns how many events the history stores, pair and session
// events together.
func (h *History) Events() int {
	n := len(h.sess)
	for _, a := range h.arenas {
		n += len(a)
	}
	return n
}

// reportPeers returns Report.Peers for a detection over intervals: the
// peers with a session event or an event on an interval's prefix, in
// h.peers' order — all the peers a build tracking those prefixes holds.
func (h *History) reportPeers(intervals []beacon.Interval) []PeerID {
	keep := make([]bool, len(h.peers))
	for pi, sp := range h.sessSpans {
		keep[pi] = sp.n > 0
	}
	for _, iv := range intervals {
		if xi, ok := h.prefixIdx[iv.Prefix]; ok {
			for _, ki := range h.prefixPairs(xi) {
				keep[h.pairKeys[ki]>>32] = true
			}
		}
	}
	out := make([]PeerID, 0, len(h.peers))
	for pi, k := range keep {
		if k {
			out = append(out, h.peers[pi])
		}
	}
	return out
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

// fold applies one history event to the state. It is THE state step: the
// batch cursor, the anomaly sweeps and the StreamDetector all
// reconstruct a (peer, prefix) by folding its events through it, so they
// cannot disagree on what an event does. A session down clears the route (a
// dead session cannot host a zombie); a session up changes nothing. At
// survives a withdrawal: it is the last announcement's time, read only
// while Present.
func (st *State) fold(ev *histEvent) {
	switch ev.kind {
	case evAnnounce:
		st.Present = true
		st.Path = ev.path
		st.Agg = ev.agg
		st.At = ev.at
		st.LastEvent = ev.at
	case evWithdraw:
		st.Present = false
		st.Path = bgp.ASPath{}
		st.Agg = nil
		st.LastEvent = ev.at
	case evSessionDown:
		*st = State{LastEvent: ev.at}
	}
}
