package bgp

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"net/netip"
	"sync/atomic"

	"zombiescope/internal/intern"
)

// DecodeFlags tune the allocation behavior of scratch-based decoding.
// The zero value is retain semantics: no decoded value aliases the input
// buffer, so a fresh Scratch decoded with flags 0 hands out an Update that
// owns its memory and may be kept.
type DecodeFlags uint8

const (
	// DecodeBorrow lets decoded byte fields (today: unknown attribute
	// values) alias the input buffer instead of being cloned. Only valid
	// when the caller consumes the Update before the buffer is reused —
	// the contract of the pooled MRT reader's borrow mode.
	DecodeBorrow DecodeFlags = 1 << iota
	// DecodeIntern canonicalizes AS paths and aggregators through the
	// process-wide intern tables, so repeated attributes share one
	// allocation. Interned values are safe to retain indefinitely.
	DecodeIntern
	// DecodeAS2 decodes a message of a two-octet-AS session (an MRT
	// BGP4MP_MESSAGE): AS_PATH and AGGREGATOR carry two-octet ASNs, and
	// AS4_PATH and AS4_AGGREGATOR restore the four-octet ones they stand
	// for (RFC 6793 §4.2.3); see mergeAS4.
	DecodeAS2

	// decodeDefer is DecodeUpdateIf's first pass: the attribute walk
	// files the AS_PATH, AGGREGATOR and COMMUNITIES values in
	// Scratch.deferred instead of decoding them.
	decodeDefer DecodeFlags = 1 << 7
)

// Scratch is the package's one UPDATE decoder, a reusable workspace for
// hot paths that process one message at a time. DecodeUpdate returns a
// pointer into the Scratch itself: the Update, its prefix slices, and its
// communities and MP_REACH/UNREACH attributes are all overwritten by the
// next call, so the caller must extract what it needs before decoding
// again. Values obtained with DecodeIntern (AS paths, aggregators) are the
// only parts safe to retain. A caller that keeps the whole Update decodes
// into a fresh Scratch with flags 0: new(Scratch).DecodeUpdate(b, 0).
//
// A Scratch must not be shared between goroutines. The zero value is
// ready to use.
type Scratch struct {
	u        Update
	wd, nlri []netip.Prefix // the storage behind u.Withdrawn and u.NLRI
	attrs    AttrStore      // the storage behind u.Attrs
	front    *scratchFront  // see fronts
	deferred []RawAttr      // the attribute values DecodeUpdateIf has not decoded yet
	eager    bool           // DecodeUpdateIf kept the last update: decode the next in full
	// pathID and aggID are the intern ids of u's AS path and aggregator
	// (see InternIDs).
	pathID, aggID uint32
}

// AttrStore is the reusable storage behind one decoded attribute block:
// the backing arrays of its communities and unknown attributes and its
// MP_REACH_NLRI and MP_UNREACH_NLRI structs. A caller that keeps several
// blocks decoded at once (the entries of one RIB record) holds one
// AttrStore per block, so no two blocks share memory. The zero value is
// ready to use.
type AttrStore struct {
	comms   []Community
	unknown []RawAttr
	reach   MPReachNLRI
	unreach MPUnreachNLRI
	// The storage behind reach.NLRI and unreach.Withdrawn, kept when a
	// decoded list is empty and handed out as nil.
	reachNLRI, unreachWd []netip.Prefix
}

// DecodeUpdate parses a full UPDATE message (header included) into the
// scratch workspace. See the Scratch doc for the ownership rules; the
// decoded values do not depend on the flags Borrow and Intern, nor on what
// the Scratch decoded before.
func (s *Scratch) DecodeUpdate(b []byte, df DecodeFlags) (*Update, error) {
	length, typ, err := DecodeHeader(b)
	if err != nil {
		return nil, err
	}
	if typ != MsgUpdate {
		return nil, fmt.Errorf("%w: got %s, want UPDATE", ErrUnknownType, typ)
	}
	if len(b) < length {
		return nil, fmt.Errorf("%w: message declares %d bytes, have %d", ErrShortMessage, length, len(b))
	}
	if err := s.decodeBody(b[HeaderLen:length], df); err != nil {
		return nil, err
	}
	return &s.u, nil
}

// InternIDs returns the intern ids of the AS path and the aggregator of
// the update s last decoded with DecodeIntern: dense numbers, one per
// distinct value the process has interned, so a caller can key per-value
// state by slice index. An id is 0 when the update carries no such
// attribute. Ids depend on the order values were first interned, never
// on the values, so they must not order anything a caller outputs.
func (s *Scratch) InternIDs() (path, agg uint32) { return s.pathID, s.aggID }

// DecodeUpdateIf is DecodeUpdate for a caller that keeps an update only
// when want accepts one of its prefixes (withdrawn or announced, top-level
// or MP). It makes every check DecodeUpdate makes and decodes every
// prefix, but it decodes the AS_PATH, AGGREGATOR and COMMUNITIES values —
// the attributes that intern, hash or copy — only once want has accepted a
// prefix; for an update no prefix of which is wanted it merely validates
// them, and returns a nil Update and a nil error. A kept update is the
// Update DecodeUpdate returns, under the same ownership rules, and no
// attribute of it is walked twice. A message that fails returns exactly
// DecodeUpdate's error: the failure path decodes the message again in
// full, so the first error in wire order wins as it does there.
//
// Kept updates come in runs (in a stream whose every prefix is wanted, one
// run), and deferring costs a kept update the bookkeeping of the second
// step. So after a kept update the next one is decoded in full first and
// want asked after; the first update of a run of unwanted ones is
// materialized, the rest are not.
func (s *Scratch) DecodeUpdateIf(b []byte, df DecodeFlags, want func(netip.Prefix) bool) (*Update, error) {
	if s.eager || df&DecodeAS2 != 0 { // a two-octet AS_PATH merges after the walk: no deferring
		u, err := s.DecodeUpdate(b, df)
		if err != nil || wantsAny(u, want) {
			return u, err
		}
		s.eager = false
		return nil, nil
	}
	s.deferred = s.deferred[:0]
	u, err := s.DecodeUpdate(b, df|decodeDefer)
	if err == nil {
		keep := wantsAny(u, want)
		for _, a := range s.deferred {
			if keep {
				err = u.Attrs.decodeOne(df, s, &s.attrs, a.Flags, a.Type, a.Value)
			} else if !deferredValid(a) {
				err = ErrBadAttribute
			}
			if err != nil {
				break
			}
		}
		if err == nil {
			if s.eager = keep; !keep {
				u = nil
			}
			return u, nil
		}
	}
	_, err = s.DecodeUpdate(b, df)
	return nil, err
}

// isDeferred reports whether DecodeUpdateIf postpones attributes of type typ.
func isDeferred(typ uint8) bool {
	return typ == AttrASPath || typ == AttrAggregator || typ == AttrCommunities
}

// deferredValid reports whether decodeOne accepts the deferred attribute a.
func deferredValid(a RawAttr) bool {
	switch a.Type {
	case AttrASPath:
		return validASPath(a.Value)
	case AttrAggregator:
		return len(a.Value) == 8
	default: // AttrCommunities
		return len(a.Value)%4 == 0
	}
}

// wantsAny reports whether want accepts any prefix u withdraws or announces.
func wantsAny(u *Update, want func(netip.Prefix) bool) bool {
	if anyWanted(u.Withdrawn, want) || anyWanted(u.NLRI, want) {
		return true
	}
	if m := u.Attrs.MPUnreach; m != nil && anyWanted(m.Withdrawn, want) {
		return true
	}
	m := u.Attrs.MPReach
	return m != nil && anyWanted(m.NLRI, want)
}

func anyWanted(ps []netip.Prefix, want func(netip.Prefix) bool) bool {
	for _, p := range ps {
		if want(p) {
			return true
		}
	}
	return false
}

// DecodePathAttributes parses the path-attribute block b into pa, which it
// overwrites, keeping what it can in st: pa's communities, unknown
// attributes and MP_REACH/UNREACH live in st until st decodes another
// block. Every field of pa is what a fresh AttrStore would decode from b,
// nil for an absent attribute included. The flags and the
// retention rules are DecodeUpdate's: with DecodeIntern the AS path and
// aggregator are safe to retain, and with DecodeBorrow unknown attribute
// values alias b.
func (s *Scratch) DecodePathAttributes(pa *PathAttributes, st *AttrStore, b []byte, df DecodeFlags) error {
	*pa = PathAttributes{}
	return decodePathAttributesInto(pa, s, st, df, b)
}

// Process-wide intern tables for the attributes the detection hot path
// retains: AS paths (keyed by their wire encoding) and aggregators (keyed
// by their fixed 8-byte value). Entries live for the process lifetime,
// bounded by the number of distinct attribute values, which a month of
// beacon archives keeps small relative to the record count.
var (
	pathTable = intern.NewTable[ASPath]()
	aggTable  = intern.NewTable[*Aggregator]()
)

// frontCache is a fixed-size, direct-mapped cache of interned values by
// wire bytes, private to one Scratch, in front of a process-wide table. A
// feed repeats its sessions' few AS paths record after record, and a table
// lookup pays a byte-wise shard hash, the map's own hash, a reader lock and
// a hit counter on cache lines every decoding core shares; a front hit is
// one hash and one compare on memory only this Scratch touches. It is
// fixed-size because a Scratch can live as long as the process
// (StreamDetector's does): a colliding key replaces the slot's entry.
type frontCache[V any] struct {
	slots [frontSlots]struct {
		n   uint8 // key length; 0 marks an empty slot
		key [frontKeyMax]byte
		id  uint32
		v   V
	}
	hits *atomic.Uint64
}

const (
	frontSlots = 256 // a power of two: the slot pick is a mask
	// frontKeyMax is the longest key cached (an AS_PATH of one 15-AS
	// sequence); longer and empty ones go straight to the table.
	frontKeyMax = 62
)

var frontSeed = maphash.MakeSeed()

// get is t.GetErr(key, mk) served from the cache when the key repeats.
func (c *frontCache[V]) get(t *intern.Table[V], key []byte, mk func([]byte) (V, error)) (V, uint32, error) {
	if len(key) == 0 || len(key) > frontKeyMax {
		return t.GetErr(key, mk)
	}
	e := &c.slots[maphash.Bytes(frontSeed, key)&(frontSlots-1)]
	if int(e.n) == len(key) && string(e.key[:e.n]) == string(key) {
		c.hits.Add(1)
		return e.v, e.id, nil
	}
	v, id, err := t.GetErr(key, mk)
	if err == nil {
		e.n, e.id, e.v = uint8(copy(e.key[:], key)), id, v
	}
	return v, id, err
}

// scratchFront is the pair of front caches of one Scratch.
type scratchFront struct {
	paths frontCache[ASPath]
	aggs  frontCache[*Aggregator]
}

// frontHits counts the lookups front caches served, which the tables' own
// counters never see; InternStats adds them back so the hit rate stays
// exact. A Scratch counts on the stripe it drew when its caches were
// allocated, so decoders running side by side write different cache lines.
var (
	frontHits [16]struct {
		path, agg atomic.Uint64
		_         [48]byte // one stripe per cache line
	}
	frontNext atomic.Uint32
)

// fronts returns the Scratch's front caches, allocated by the first
// DecodeIntern lookup so that plain decoding never pays for them.
func (s *Scratch) fronts() *scratchFront {
	if s.front == nil {
		stripe := &frontHits[frontNext.Add(1)%uint32(len(frontHits))]
		s.front = &scratchFront{}
		s.front.paths.hits, s.front.aggs.hits = &stripe.path, &stripe.agg
	}
	return s.front
}

func decodeASPathKey(key []byte) (ASPath, error) { return DecodeASPath(key) }

func decodeAggregatorKey(key []byte) (*Aggregator, error) {
	return &Aggregator{
		ASN:  ASN(binary.BigEndian.Uint32(key)),
		Addr: netip.AddrFrom4([4]byte(key[4:8])),
	}, nil
}

// InternStats reports the process-wide attribute intern tables' counters,
// for the pipeline's observability surfaces.
func InternStats() (path, agg intern.Stats) {
	path, agg = pathTable.Stats(), aggTable.Stats()
	for i := range frontHits {
		path.Hits += frontHits[i].path.Load()
		agg.Hits += frontHits[i].agg.Load()
	}
	return path, agg
}
