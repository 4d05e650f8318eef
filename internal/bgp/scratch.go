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
// The zero value reproduces the package's default retain semantics: every
// decoded value owns its memory and may outlive the input buffer.
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
)

// Scratch is a reusable decode workspace for hot paths that process one
// message at a time. DecodeUpdate returns a pointer into the Scratch
// itself: the Update, its prefix slices, and its communities and
// MP_REACH/UNREACH attributes are all overwritten by the next call, so the
// caller must extract what it needs before decoding again. Values obtained
// with DecodeIntern (AS paths, aggregators) are the only parts safe to
// retain.
//
// A Scratch must not be shared between goroutines. The zero value is
// ready to use.
type Scratch struct {
	u     Update
	attrs AttrStore     // the storage behind u.Attrs
	front *scratchFront // see fronts
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
}

// DecodeUpdate parses a full UPDATE message (header included) into the
// scratch workspace. See the Scratch doc for the ownership rules; the
// decoded values are identical to the allocating DecodeUpdate's.
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
	u := &s.u
	*u = Update{Withdrawn: u.Withdrawn[:0], NLRI: u.NLRI[:0]}
	if err := decodeUpdateBodyInto(u, s, &s.attrs, df, b[HeaderLen:length]); err != nil {
		return nil, err
	}
	return u, nil
}

// DecodePathAttributes parses the path-attribute block b into pa, which it
// overwrites, keeping what it can in st: pa's communities, unknown
// attributes and MP_REACH/UNREACH live in st until st decodes another
// block. Every field of pa is what the allocating DecodePathAttributes
// returns for b, nil for an absent attribute included. The flags and the
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
func (c *frontCache[V]) get(t *intern.Table[V], key []byte, mk func([]byte) (V, error)) (V, error) {
	if len(key) == 0 || len(key) > frontKeyMax {
		return t.GetErr(key, mk)
	}
	e := &c.slots[maphash.Bytes(frontSeed, key)&(frontSlots-1)]
	if int(e.n) == len(key) && string(e.key[:e.n]) == string(key) {
		c.hits.Add(1)
		return e.v, nil
	}
	v, err := t.GetErr(key, mk)
	if err == nil {
		e.n, e.v = uint8(copy(e.key[:], key)), v
	}
	return v, err
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
