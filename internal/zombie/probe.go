package zombie

import (
	"encoding/binary"
	"net/netip"
)

// This file holds the open-addressed indexes of the per-event hot path.
// A Go map keyed on a PeerID, a netip.Prefix or a (peer, prefix) struct
// runs the runtime's generic hash over the whole key on every lookup; these
// indexes hash an address's two 64-bit words and a small tag with three
// multiplies and resolve a key in one probe, the common case, so a record
// pays for them in proportion to the prefixes it carries.

// openSlots is an open-addressed hash index (linear probing) of dense
// numbers 0..n-1: a slot holds number+1 and 0 marks it empty. The owner
// keeps the keys in the arrays the numbers index, hashes them and compares
// them itself, so a slot is four bytes. The table doubles when half full.
type openSlots struct {
	slots []uint32
	shift uint8 // a hash's top bits pick the home slot: h >> shift
}

// home returns the first slot a key of hash h probes.
func (x *openSlots) home(h uint64) int { return int(h >> x.shift) }

// next returns the slot probed after slot i.
func (x *openSlots) next(i int) int { return (i + 1) & (len(x.slots) - 1) }

// add files number n, whose key has hash h, in the empty slot i at which a
// lookup for the key ended, after growing the table if n makes it more than
// half full; growing refiles every number below n by hashOf. The owner
// adds its numbers in order, so n is also how many it holds.
func (x *openSlots) add(i int, h uint64, n uint32, hashOf func(uint32) uint64) {
	if 2*(int(n)+1) > len(x.slots) {
		x.resize(2*(int(n)+1), n, hashOf)
		i = x.free(h)
	}
	x.slots[i] = n + 1
}

// resize rebuilds the table with room for at least want slots, refiling
// numbers 0..n-1.
func (x *openSlots) resize(want int, n uint32, hashOf func(uint32) uint64) {
	size, shift := 16, uint8(60)
	for size < want {
		size, shift = 2*size, shift-1
	}
	x.slots, x.shift = make([]uint32, size), shift
	for k := range n {
		x.slots[x.free(hashOf(k))] = k + 1
	}
}

// free returns the first empty slot a key of hash h probes.
func (x *openSlots) free(h uint64) int {
	i := x.home(h)
	for x.slots[i] != 0 {
		i = x.next(i)
	}
	return i
}

// addrHash hashes an address and a 64-bit tag. The address enters as the
// words of its bytes (a zone does not enter), so owners tell keys apart by
// comparing the full values. The bytes are read through AsSlice: As16's
// array copy costs a store-forwarding stall that is most of a probe. The
// last multiply carries every input bit into the top bits, which pick the
// home slot.
func addrHash(a netip.Addr, tag uint64) uint64 {
	var hi, lo uint64
	switch w := a.AsSlice(); len(w) {
	case 16:
		hi, lo = binary.BigEndian.Uint64(w[:8]), binary.BigEndian.Uint64(w[8:])
	case 4:
		lo = uint64(binary.BigEndian.Uint32(w))
	}
	return ((hi*0x9e3779b97f4a7c15^lo)*0xbf58476d1ce4e5b9 ^ tag) * 0x94d049bb133111eb
}

// prefixHash hashes a prefix and a 32-bit tag (a local peer number, or 0).
func prefixHash(p netip.Prefix, tag uint32) uint64 {
	return addrHash(p.Addr(), uint64(tag)<<8|uint64(uint8(p.Bits())))
}

// trackIndex is a TrackSet prepared for the per-prefix test of the
// decode path: an open-addressed set of the tracked prefixes, one probe per
// prefix. A build or a detector prepares its TrackSet once and shares the
// index read-only between its builders. A nil *trackIndex tracks every
// prefix, as a nil TrackSet does.
type trackIndex struct {
	prefixes []netip.Prefix
	openSlots
}

// prepare builds ts's index; nil for a nil TrackSet.
func (ts TrackSet) prepare() *trackIndex {
	if ts == nil {
		return nil
	}
	x := &trackIndex{}
	for p, ok := range ts {
		if ok {
			x.prefixes = append(x.prefixes, p)
		}
	}
	// A quarter full: most probes are for untracked prefixes, and a miss
	// walks to the first empty slot.
	x.resize(4*len(x.prefixes), uint32(len(x.prefixes)), func(k uint32) uint64 { return prefixHash(x.prefixes[k], 0) })
	return x
}

// has reports whether p is tracked.
func (x *trackIndex) has(p netip.Prefix) bool {
	if x == nil {
		return true
	}
	for i := x.home(prefixHash(p, 0)); ; i = x.next(i) {
		if s := x.slots[i]; s == 0 || x.prefixes[s-1] == p {
			return s != 0
		}
	}
}
