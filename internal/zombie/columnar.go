package zombie

import (
	"cmp"
	"errors"
	"math"
	"net/netip"
	"slices"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/pipeline"
)

// This file is the columnar history store. Builders accumulate events in
// stream order as packed rows, canonicalizing peers, prefixes, AS paths and
// aggregators to dense builder-local indices; sealHistory renumbers them
// canonically (sorted), lays every (peer, prefix) event stream out
// contiguously in one shared arena, and imposes the (time, order) sort where
// a stream did not arrive in it. The layout is a pure function of the event
// multiset plus per-pair stream order, so however a stream is cut across
// builders — one builder for a whole feed, or one per decoded chunk of an
// archive — it seals to a bit-identical History, the property the
// differential harness checks with reflect.DeepEqual.

// row is one stored history event: 32 bytes and pointer-free, so the
// garbage collector neither scans nor write-barriers an arena of them.
// path and agg index the owner's tables (builder-local in a builder,
// canonical in a History; 0 is the empty path / no aggregator) and the
// communities are a run of the owner's community arena. histEvent is the
// decoded form; History.event converts back.
type row struct {
	at      int64  // Unix nanoseconds (every MRT timestamp fits)
	order   uint32 // archive position, breaks same-instant ties
	path    uint32
	agg     uint32
	commOff uint32 // the communities are comms[commOff:][:commN]
	slot    uint32 // in a builder: the local pair (session rows: peer); 0 once sealed
	commN   uint16
	kind    eventKind
}

// compareRows is the canonical event order: time, then archive position.
func compareRows(a, b row) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	return cmp.Compare(a.order, b.order)
}

// time returns the row's instant in the form the MRT decoder produces.
func (r *row) time() time.Time { return time.Unix(0, r.at).UTC() }

// span locates one event stream inside a shared arena.
type span struct {
	off uint32
	n   uint32
}

// pairKey packs dense (peer, prefix) indices into one key. Ascending key
// order is the arena layout order.
func pairKey(peer, prefix uint32) uint64 { return uint64(peer)<<32 | uint64(prefix) }

// ErrHistoryTooLarge reports a history beyond what the span index can
// address: offsets, counts and archive positions are 32-bit.
var ErrHistoryTooLarge = errors.New("zombie: history too large: more than 2^32-1 records, events or community values")

// maxHistory is that bound; a variable so a test can reach it.
var maxHistory uint64 = math.MaxUint32

// blockRows sizes the builder's storage blocks (128 KiB of rows).
const blockRows = 4096

// builderPair is a builder's tally of one local (peer, prefix) pair.
type builderPair struct {
	key      uint64 // pairKey of the builder-local indices
	n, comms uint32 // events and community values stored
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
// paths, so nothing a record allocates outlives Observe, and a borrowed
// record may be recycled as soon as Observe returns. Events are appended to
// fixed-size blocks, so storing one never moves an earlier one. A builder
// is single-goroutine.
type HistoryBuilder struct {
	track   TrackSet
	scratch bgp.Scratch
	order   int  // position of the last observed record; Observe numbers the next order+1
	full    bool // an event was refused: the builder is at maxHistory

	peers    table[PeerID, PeerID]
	prefixes table[netip.Prefix, netip.Prefix]
	pairs    table[uint64, builderPair]              // by builderPair.key
	paths    table[*bgp.PathSegment, bgp.ASPath]     // by the interned backing array; row.path is index+1
	aggs     table[*bgp.Aggregator, *bgp.Aggregator] // row.agg is index+1
	comms    []bgp.Community
	blocks   [][]row // pair events; every block but the last is full
	events   int
	sess     []row // session events, few; slot is the local peer
}

// NewHistoryBuilder returns an empty builder reconstructing the tracked
// prefixes (nil tracks every prefix).
func NewHistoryBuilder(track TrackSet) *HistoryBuilder { return &HistoryBuilder{track: track} }

// Observe ingests one record of the named collector's stream. The error is
// the record's BGP decode error, unwrapped (adapters add their own
// position), or ErrHistoryTooLarge once the builder is at the index's
// bound; events past the bound are not stored.
func (b *HistoryBuilder) Observe(collector string, rec mrt.Record) error {
	b.order++
	if uint64(b.order) > maxHistory {
		b.full = true
	}
	var err error
	if !b.full {
		err = recordEvents(collector, b.order, rec, b.track, &b.scratch, b.add, b.addSession)
	}
	if b.full {
		err = ErrHistoryTooLarge
	}
	return err
}

// Seal builds the canonical History from everything observed so far. The
// builder keeps its events: Observe may continue and Seal may be called
// again over the longer stream.
func (b *HistoryBuilder) Seal() *History {
	h, _, err := sealHistory(&pipeline.Engine{Workers: 1}, []*HistoryBuilder{b})
	if err != nil {
		panic(err) // one builder never holds more than maxHistory
	}
	return h
}

// table is a builder's dense numbering of one kind of value, in first-seen
// order.
type table[K comparable, V any] struct {
	vals []V
	idx  map[K]uint32
}

// intern returns key's index, appending v on first sight.
func (t *table[K, V]) intern(key K, v V) uint32 {
	i, ok := t.idx[key]
	if !ok {
		if t.idx == nil {
			t.idx = make(map[K]uint32)
		}
		i = uint32(len(t.vals))
		t.vals = append(t.vals, v)
		t.idx[key] = i
	}
	return i
}

// pack converts a decoded event into the builder's row form, copying its
// communities into the builder's arena.
func (b *HistoryBuilder) pack(ev *histEvent, slot uint32) row {
	r := row{at: ev.at.UnixNano(), order: uint32(ev.order), kind: ev.kind, slot: slot}
	if len(ev.path.Segments) > 0 {
		r.path = 1 + b.paths.intern(&ev.path.Segments[0], ev.path)
	}
	if ev.agg != nil {
		r.agg = 1 + b.aggs.intern(ev.agg, ev.agg)
	}
	if len(ev.comms) > 0 {
		r.commOff, r.commN = uint32(len(b.comms)), uint16(len(ev.comms))
		b.comms = append(b.comms, ev.comms...)
	}
	return r
}

func (b *HistoryBuilder) add(peer PeerID, p netip.Prefix, ev histEvent) {
	if b.full = b.full || uint64(b.events) >= maxHistory || uint64(len(b.comms)+len(ev.comms)) > maxHistory; b.full {
		return
	}
	key := pairKey(b.peers.intern(peer, peer), b.prefixes.intern(p, p))
	lp := b.pairs.intern(key, builderPair{key: key})
	b.pairs.vals[lp].n++
	b.pairs.vals[lp].comms += uint32(len(ev.comms))
	last := len(b.blocks) - 1
	if last < 0 || len(b.blocks[last]) == blockRows {
		b.blocks = append(b.blocks, make([]row, 0, blockRows))
		last++
	}
	b.blocks[last] = append(b.blocks[last], b.pack(&ev, lp))
	b.events++
}

func (b *HistoryBuilder) addSession(peer PeerID, ev histEvent) {
	if b.full = b.full || uint64(len(b.sess)) >= maxHistory; !b.full {
		b.sess = append(b.sess, b.pack(&ev, b.peers.intern(peer, peer)))
	}
}

// comparePrefixes orders prefixes by (Addr, Bits) — the canonical prefix
// order of the columnar store.
func comparePrefixes(a, b netip.Prefix) int {
	return cmp.Or(a.Addr().Compare(b.Addr()), cmp.Compare(a.Bits(), b.Bits()))
}

// comparePaths orders AS paths segment by segment: the canonical order of a
// History's path table.
func comparePaths(a, b bgp.ASPath) int {
	return slices.CompareFunc(a.Segments, b.Segments, func(x, y bgp.PathSegment) int {
		return cmp.Or(cmp.Compare(x.Type, y.Type), slices.Compare(x.ASNs, y.ASNs))
	})
}

func compareAggregators(a, b *bgp.Aggregator) int {
	return cmp.Or(cmp.Compare(a.ASN, b.ASN), a.Addr.Compare(b.Addr))
}

// canonTable unions the builders' copies of one table, sorts the union, and
// returns it with each builder's local-to-canonical index map and the
// canonical index of every key. With sentinel 1 both sides of the map are
// index+1 and the union's entry 0 is the zero value: rows use 0 for "none".
func canonTable[K comparable, V any](builders []*HistoryBuilder, table func(*HistoryBuilder) []V, sentinel int,
	key func(V) K, compare func(a, b V) int) ([]V, [][]uint32, map[K]uint32) {
	idx := make(map[K]uint32)
	all := make([]V, sentinel)
	for _, b := range builders {
		for _, v := range table(b) {
			if _, ok := idx[key(v)]; !ok {
				idx[key(v)] = 0 // numbered below
				all = append(all, v)
			}
		}
	}
	slices.SortFunc(all[sentinel:], compare)
	for i, v := range all[sentinel:] {
		idx[key(v)] = uint32(sentinel + i)
	}
	remap := make([][]uint32, len(builders))
	for bi, b := range builders {
		remap[bi] = make([]uint32, sentinel+len(table(b)))
		for i, v := range table(b) {
			remap[bi][sentinel+i] = idx[key(v)]
		}
	}
	return all, remap, idx
}

func identity[V any](v V) V { return v }

// sealCursor is a write position in the event and community arenas.
type sealCursor struct{ row, comm uint32 }

// builderPairRef is one builder's share of a canonical (peer, prefix) pair.
type builderPairRef struct {
	key    uint64 // canonical
	bi, lp uint32
}

// countingSort stably orders src by key, a dense number below n, into dst.
func countingSort[T any](dst, src []T, n int, key func(T) uint32) {
	next := make([]uint32, n+1)
	for _, r := range src {
		next[key(r)+1]++
	}
	for i := range n {
		next[i+1] += next[i]
	}
	for _, r := range src {
		k := key(r)
		dst[next[k]] = r
		next[k]++
	}
}

// sealHistory merges builders into the canonical columnar History, running
// its per-builder and per-span work on e; sorted is how many pair spans were
// not already in (time, order) order.
//
// Seal-order invariant: for every collector, the builders holding its
// records appear in that collector's stream order (BuildHistoryStreams
// passes chunk builders in (file, chunk) order). Every builder gets its own
// write cursor into each of its pairs' spans, the cursors of one span laid
// end to end in builder order, and scatters its events in insertion order.
// So a (peer, prefix) pair — or a peer's session stream — whose events span
// builders lands in its span in stream order, exactly as if one builder had
// been fed the whole stream, although the builders write concurrently. A
// span is sorted only if it is then out of (time, order) order, and stably,
// so same-record ties keep their insertion order.
//
// The seal does one map operation per distinct (builder, table entry) and
// two counting passes over the distinct (builder, pair)s; per event it does
// a copy.
func sealHistory(e *pipeline.Engine, builders []*HistoryBuilder) (h *History, sorted int, err error) {
	h = &History{}
	var peerMap, prefixMap, pathMap, aggMap [][]uint32
	h.peers, peerMap, h.peerIdx = canonTable(builders, func(b *HistoryBuilder) []PeerID { return b.peers.vals }, 0, identity, comparePeers)
	h.prefixes, prefixMap, h.prefixIdx = canonTable(builders, func(b *HistoryBuilder) []netip.Prefix { return b.prefixes.vals }, 0, identity, comparePrefixes)
	h.paths, pathMap, _ = canonTable(builders, func(b *HistoryBuilder) []bgp.ASPath { return b.paths.vals }, 1,
		func(p bgp.ASPath) *bgp.PathSegment { return &p.Segments[0] }, comparePaths)
	h.aggs, aggMap, _ = canonTable(builders, func(b *HistoryBuilder) []*bgp.Aggregator { return b.aggs.vals }, 1, identity, compareAggregators)

	// Lay the spans out in ascending key order and hand every builder its
	// cursors: ordered by (key, builder), the builders' pairs are visited
	// span by span and, within one span, in builder order. The refs are
	// gathered in builder order, so two stable counting passes over the
	// dense canonical numbers, prefix first and then peer, give that order.
	n := 0
	for _, b := range builders {
		n += len(b.pairs.vals)
	}
	refs, byPrefix := make([]builderPairRef, 0, n), make([]builderPairRef, n)
	cursors := make([][]sealCursor, len(builders))
	for bi, b := range builders {
		cursors[bi] = make([]sealCursor, len(b.pairs.vals))
		for lp, bp := range b.pairs.vals {
			k := pairKey(peerMap[bi][bp.key>>32], prefixMap[bi][uint32(bp.key)])
			refs = append(refs, builderPairRef{key: k, bi: uint32(bi), lp: uint32(lp)})
		}
	}
	countingSort(byPrefix, refs, len(h.prefixes), func(r builderPairRef) uint32 { return uint32(r.key) })
	countingSort(refs, byPrefix, len(h.peers), func(r builderPairRef) uint32 { return uint32(r.key >> 32) })
	var events, comms uint64
	for i, ref := range refs {
		if i == 0 || ref.key != refs[i-1].key {
			h.pairKeys = append(h.pairKeys, ref.key)
			h.spans = append(h.spans, span{off: uint32(events)})
		}
		bp := builders[ref.bi].pairs.vals[ref.lp]
		h.spans[len(h.spans)-1].n += bp.n
		cursors[ref.bi][ref.lp] = sealCursor{row: uint32(events), comm: uint32(comms)}
		events += uint64(bp.n)
		comms += uint64(bp.comms)
	}
	if events > maxHistory || comms > maxHistory {
		return nil, 0, ErrHistoryTooLarge // the 32-bit positions above have wrapped
	}

	// Scatter: builders write disjoint arena slots, so they run concurrently.
	h.events = make([]row, events)
	h.comms = make([]bgp.Community, comms)
	e.For(len(builders), func(bi int) {
		b, cur, paths, aggs := builders[bi], cursors[bi], pathMap[bi], aggMap[bi]
		for _, blk := range b.blocks {
			for _, r := range blk {
				c := &cur[r.slot]
				r.path, r.agg, r.slot = paths[r.path], aggs[r.agg], 0
				if r.commN > 0 {
					copy(h.comms[c.comm:], b.comms[r.commOff:][:r.commN])
					r.commOff = c.comm
					c.comm += uint32(r.commN)
				}
				h.events[c.row] = r
				c.row++
			}
		}
	})
	sorted = sortSpans(e, h.events, h.spans)

	// Prefix-major pair index: pair keys ascend peer-major, so filing pair
	// numbers in key order leaves every prefix's pairs in peer order.
	h.prefixOff = make([]uint32, len(h.prefixes)+1)
	for _, k := range h.pairKeys {
		h.prefixOff[uint32(k)+1]++
	}
	for xi := range h.prefixes {
		h.prefixOff[xi+1] += h.prefixOff[xi]
	}
	h.byPrefix = make([]uint32, len(h.pairKeys))
	fill := slices.Clone(h.prefixOff)
	for ki, k := range h.pairKeys {
		h.byPrefix[fill[uint32(k)]] = uint32(ki)
		fill[uint32(k)]++
	}

	// Session arena, spans indexed densely by peer (zero span = none).
	// Session events are few: gathered in builder order, then one stable
	// sort by (peer, time, order).
	for bi, b := range builders {
		for _, r := range b.sess {
			r.slot = peerMap[bi][r.slot]
			h.sess = append(h.sess, r)
		}
	}
	if uint64(len(h.sess)) > maxHistory {
		return nil, 0, ErrHistoryTooLarge
	}
	slices.SortStableFunc(h.sess, func(a, b row) int { return cmp.Or(cmp.Compare(a.slot, b.slot), compareRows(a, b)) })
	h.sessSpans = make([]span, len(h.peers))
	for i := range h.sess {
		sp := &h.sessSpans[h.sess[i].slot]
		if sp.n == 0 {
			sp.off = uint32(i)
		}
		sp.n++
		h.sess[i].slot = 0
	}
	return h, sorted, nil
}

// sortSpans puts every span of the arena into (time, order) order and
// returns how many were not in it already: a feed is written in time order,
// so most spans pass the linear check and are never handed to a sort. Spans
// are disjoint; e's workers take contiguous runs of them.
func sortSpans(e *pipeline.Engine, arena []row, spans []span) int {
	parts := min(len(spans), 8*max(e.Workers, 1))
	sorted := make([]int, parts)
	e.For(parts, func(p int) {
		for _, sp := range spans[p*len(spans)/parts : (p+1)*len(spans)/parts] {
			if evs := arena[sp.off : sp.off+sp.n]; !slices.IsSortedFunc(evs, compareRows) {
				slices.SortStableFunc(evs, compareRows)
				sorted[p]++
			}
		}
	})
	total := 0
	for _, n := range sorted {
		total += n
	}
	return total
}
