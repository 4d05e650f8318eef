package zombie

import (
	"net/netip"
	"sort"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// This file is the columnar history store. Builders accumulate events in
// stream order, canonicalizing peers and prefixes to dense builder-local
// indices; sealHistory renumbers them canonically (sorted), lays every
// (peer, prefix) event stream out contiguously in one shared arena, and
// imposes the (time, order) sort once. The layout is a pure function of
// the event multiset plus per-pair stream order, so however a stream is
// cut across builders — one builder for a whole feed, or one per decoded
// chunk of an archive — it seals to a bit-identical History, the property
// the differential harness checks with reflect.DeepEqual.

// span locates one event stream inside a shared arena.
type span struct {
	off uint32
	n   uint32
}

// pairKey packs dense (peer, prefix) indices into one map key. Ascending
// key order is the arena layout order.
func pairKey(peer, prefix uint32) uint64 { return uint64(peer)<<32 | uint64(prefix) }

// builderEvent is one prefix event tagged with its builder-local pair.
type builderEvent struct {
	pair uint64
	ev   histEvent
}

// builderSess is one session event tagged with its builder-local peer.
type builderSess struct {
	peer uint32
	ev   histEvent
}

// HistoryBuilder is the one way to build a History: Observe collector
// records in stream order, then Seal. Every source is an adapter over it —
// archives (BuildHistoryStreams, one builder per decoded chunk), the event
// store (BuildHistoryFromStore) and live feeds (livefeed.Pipeline). Records
// of one collector must arrive in that collector's stream order; how
// collectors interleave does not matter, because a (peer, prefix) pair
// never spans collectors.
//
// Updates are decoded into a reused scratch workspace with interned AS
// paths, so nothing a record allocates outlives Observe except the events
// themselves, and a borrowed record may be recycled as soon as Observe
// returns. A builder is single-goroutine.
type HistoryBuilder struct {
	track   TrackSet
	scratch bgp.Scratch
	order   int // position of the last observed record; Observe numbers the next order+1

	peers     []PeerID
	peerIdx   map[PeerID]uint32
	prefixes  []netip.Prefix
	prefixIdx map[netip.Prefix]uint32
	events    []builderEvent
	sess      []builderSess
}

// NewHistoryBuilder returns an empty builder reconstructing the tracked
// prefixes (nil tracks every prefix).
func NewHistoryBuilder(track TrackSet) *HistoryBuilder {
	return &HistoryBuilder{
		track:     track,
		peerIdx:   make(map[PeerID]uint32),
		prefixIdx: make(map[netip.Prefix]uint32),
	}
}

// Observe ingests one record of the named collector's stream. The error is
// the record's BGP decode error, unwrapped: adapters add their own position.
func (b *HistoryBuilder) Observe(collector string, rec mrt.Record) error {
	b.order++
	return recordEvents(collector, b.order, rec, b.track, &b.scratch, b.add, b.addSession)
}

// Seal builds the canonical History from everything observed so far. The
// builder keeps its events: Observe may continue and Seal may be called
// again over the longer stream.
func (b *HistoryBuilder) Seal() *History {
	return sealHistory([]*HistoryBuilder{b})
}

// peerID interns a peer into the builder's dense numbering.
func (b *HistoryBuilder) peerID(peer PeerID) uint32 {
	if i, ok := b.peerIdx[peer]; ok {
		return i
	}
	i := uint32(len(b.peers))
	b.peers = append(b.peers, peer)
	b.peerIdx[peer] = i
	return i
}

// prefixID interns a prefix into the builder's dense numbering.
func (b *HistoryBuilder) prefixID(p netip.Prefix) uint32 {
	if i, ok := b.prefixIdx[p]; ok {
		return i
	}
	i := uint32(len(b.prefixes))
	b.prefixes = append(b.prefixes, p)
	b.prefixIdx[p] = i
	return i
}

func (b *HistoryBuilder) add(peer PeerID, p netip.Prefix, ev histEvent) {
	b.events = append(b.events, builderEvent{pair: pairKey(b.peerID(peer), b.prefixID(p)), ev: ev})
}

func (b *HistoryBuilder) addSession(peer PeerID, ev histEvent) {
	b.sess = append(b.sess, builderSess{peer: b.peerID(peer), ev: ev})
}

// comparePrefixes orders prefixes by (Addr, Bits) — the canonical prefix
// order of the columnar store.
func comparePrefixes(a, b netip.Prefix) int {
	if a.Addr() != b.Addr() {
		if a.Addr().Less(b.Addr()) {
			return -1
		}
		return 1
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}

// eventLess is the canonical event order: time, then archive position.
func eventLess(a, b histEvent) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.order < b.order
}

// sealHistory merges builders into the canonical columnar History.
//
// Seal-order invariant: for every collector, the builders holding its
// records appear in that collector's stream order (BuildHistoryStreams
// passes chunk builders in (file, chunk) order). The scatter below walks
// builders in index order and each builder's events in insertion order, so
// a (peer, prefix) pair — or a peer's session stream — whose events span
// builders still lands in its span in stream order, and the stable
// (time, order) sort then sees the same insertion order a single builder
// fed the whole stream would have produced.
func sealHistory(builders []*HistoryBuilder) *History {
	h := &History{
		peerIdx:   make(map[PeerID]uint32),
		prefixIdx: make(map[netip.Prefix]uint32),
		pairs:     make(map[uint64]span),
	}

	// Union the builder tables, then renumber canonically.
	for _, b := range builders {
		for _, peer := range b.peers {
			if _, ok := h.peerIdx[peer]; !ok {
				h.peerIdx[peer] = 0 // reserved; renumbered below
				h.peers = append(h.peers, peer)
			}
		}
		for _, p := range b.prefixes {
			if _, ok := h.prefixIdx[p]; !ok {
				h.prefixIdx[p] = 0
				h.prefixes = append(h.prefixes, p)
			}
		}
	}
	sort.Slice(h.peers, func(i, j int) bool { return comparePeers(h.peers[i], h.peers[j]) < 0 })
	sort.Slice(h.prefixes, func(i, j int) bool { return comparePrefixes(h.prefixes[i], h.prefixes[j]) < 0 })
	for i, peer := range h.peers {
		h.peerIdx[peer] = uint32(i)
	}
	for i, p := range h.prefixes {
		h.prefixIdx[p] = uint32(i)
	}

	// Builder-local to global index remaps.
	peerMap := make([][]uint32, len(builders))
	prefixMap := make([][]uint32, len(builders))
	for bi, b := range builders {
		pm := make([]uint32, len(b.peers))
		for i, peer := range b.peers {
			pm[i] = h.peerIdx[peer]
		}
		peerMap[bi] = pm
		xm := make([]uint32, len(b.prefixes))
		for i, p := range b.prefixes {
			xm[i] = h.prefixIdx[p]
		}
		prefixMap[bi] = xm
	}
	remap := func(bi int, pair uint64) uint64 {
		return pairKey(peerMap[bi][pair>>32], prefixMap[bi][uint32(pair)])
	}

	// Count per global pair, lay spans out in ascending key order, scatter.
	counts := make(map[uint64]uint32)
	total := 0
	for bi, b := range builders {
		for _, be := range b.events {
			counts[remap(bi, be.pair)]++
			total++
		}
	}
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h.pairKeys = keys
	h.events = make([]histEvent, total)
	cursors := make(map[uint64]uint32, len(counts))
	off := uint32(0)
	for _, k := range keys {
		n := counts[k]
		h.pairs[k] = span{off: off, n: n}
		cursors[k] = off
		off += n
	}
	for bi, b := range builders {
		for _, be := range b.events {
			k := remap(bi, be.pair)
			h.events[cursors[k]] = be.ev
			cursors[k]++
		}
	}
	for _, sp := range h.pairs {
		evs := h.events[sp.off : sp.off+sp.n]
		sort.SliceStable(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
	}

	// Session arena, spans indexed densely by peer (zero span = none).
	sessCounts := make([]uint32, len(h.peers))
	sessTotal := 0
	for bi, b := range builders {
		for _, bs := range b.sess {
			sessCounts[peerMap[bi][bs.peer]]++
			sessTotal++
		}
	}
	h.sess = make([]histEvent, sessTotal)
	h.sessSpans = make([]span, len(h.peers))
	sessCursor := make([]uint32, len(h.peers))
	off = 0
	for i, n := range sessCounts {
		h.sessSpans[i] = span{off: off, n: n}
		sessCursor[i] = off
		off += n
	}
	for bi, b := range builders {
		for _, bs := range b.sess {
			g := peerMap[bi][bs.peer]
			h.sess[sessCursor[g]] = bs.ev
			sessCursor[g]++
		}
	}
	for _, sp := range h.sessSpans {
		evs := h.sess[sp.off : sp.off+sp.n]
		sort.SliceStable(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
	}
	return h
}
