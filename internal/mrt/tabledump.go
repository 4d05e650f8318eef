package mrt

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"zombiescope/internal/bgp"
)

// Peer type bits in the PEER_INDEX_TABLE (RFC 6396 §4.3.1).
const (
	peerTypeIPv6 byte = 0x01
	peerTypeAS4  byte = 0x02
)

// PeerEntry is one peer in a PEER_INDEX_TABLE. RIB entries reference peers
// by their index in the table.
type PeerEntry struct {
	BGPID netip.Addr // router ID, always IPv4-shaped
	Addr  netip.Addr
	AS    bgp.ASN
}

// PeerIndexTable is the TABLE_DUMP_V2 PEER_INDEX_TABLE record that must
// precede RIB records in a dump file.
type PeerIndexTable struct {
	Timestamp   time.Time
	CollectorID netip.Addr // IPv4 router ID of the collector
	ViewName    string
	Peers       []PeerEntry
}

// RecordTime implements Record.
func (t *PeerIndexTable) RecordTime() time.Time { return t.Timestamp }

// RIBEntry is one peer's path for the prefix of the surrounding RIB record.
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime time.Time
	Attrs          bgp.PathAttributes
}

// RIB is a TABLE_DUMP_V2 RIB_IPVx_UNICAST record: the set of paths for one
// prefix, one entry per peer that has the route.
type RIB struct {
	Timestamp time.Time
	Sequence  uint32
	Prefix    netip.Prefix
	Entries   []RIBEntry
}

// RecordTime implements Record.
func (r *RIB) RecordTime() time.Time { return r.Timestamp }

func (t *PeerIndexTable) appendBody(dst []byte) ([]byte, error) {
	if !t.CollectorID.Is4() {
		return dst, fmt.Errorf("%w: collector ID must be IPv4", ErrBadRecord)
	}
	id := t.CollectorID.As4()
	dst = append(dst, id[:]...)
	if len(t.ViewName) > 0xffff {
		return dst, ErrBadViewName
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t.ViewName)))
	dst = append(dst, t.ViewName...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t.Peers)))
	for _, p := range t.Peers {
		typ := peerTypeAS4
		if !p.Addr.Is4() {
			typ |= peerTypeIPv6
		}
		dst = append(dst, typ)
		if !p.BGPID.Is4() {
			return dst, fmt.Errorf("%w: peer BGP ID must be IPv4", ErrBadRecord)
		}
		bid := p.BGPID.As4()
		dst = append(dst, bid[:]...)
		if p.Addr.Is4() {
			a := p.Addr.As4()
			dst = append(dst, a[:]...)
		} else {
			a := p.Addr.As16()
			dst = append(dst, a[:]...)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(p.AS))
	}
	return dst, nil
}

func decodePeerIndexTable(ts time.Time, b []byte) (*PeerIndexTable, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("%w: peer index table header", ErrTruncated)
	}
	t := &PeerIndexTable{Timestamp: ts, CollectorID: netip.AddrFrom4([4]byte(b[:4]))}
	vlen := int(binary.BigEndian.Uint16(b[4:]))
	b = b[6:]
	if len(b) < vlen+2 {
		return nil, fmt.Errorf("%w: view name", ErrTruncated)
	}
	t.ViewName = string(b[:vlen])
	count := int(binary.BigEndian.Uint16(b[vlen:]))
	b = b[vlen+2:]
	t.Peers = make([]PeerEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 5 {
			return nil, fmt.Errorf("%w: peer entry %d", ErrTruncated, i)
		}
		typ := b[0]
		var pe PeerEntry
		pe.BGPID = netip.AddrFrom4([4]byte(b[1:5]))
		b = b[5:]
		addrLen := 4
		if typ&peerTypeIPv6 != 0 {
			addrLen = 16
		}
		asLen := 2
		if typ&peerTypeAS4 != 0 {
			asLen = 4
		}
		if len(b) < addrLen+asLen {
			return nil, fmt.Errorf("%w: peer entry %d body", ErrTruncated, i)
		}
		if addrLen == 4 {
			pe.Addr = netip.AddrFrom4([4]byte(b[:4]))
		} else {
			pe.Addr = netip.AddrFrom16([16]byte(b[:16]))
		}
		b = b[addrLen:]
		if asLen == 2 {
			pe.AS = bgp.ASN(binary.BigEndian.Uint16(b))
		} else {
			pe.AS = bgp.ASN(binary.BigEndian.Uint32(b))
		}
		b = b[asLen:]
		t.Peers = append(t.Peers, pe)
	}
	return t, nil
}

// ribAttrs encodes a RIB entry's path attributes. RFC 6396 §4.3.4: the
// MP_REACH_NLRI attribute in TABLE_DUMP_V2 carries only the next-hop length
// and next hop, because AFI/SAFI/NLRI are already in the entry header.
func appendRIBAttrs(dst []byte, attrs *bgp.PathAttributes) ([]byte, error) {
	trimmed := *attrs
	mpReach := trimmed.MPReach
	trimmed.MPReach = nil
	out, err := trimmed.AppendWireFormat(dst)
	if err != nil {
		return dst, err
	}
	if mpReach != nil {
		nh := mpReach.NextHop.AsSlice()
		out = append(out, bgp.FlagOptional, bgp.AttrMPReachNLRI, byte(1+len(nh)), byte(len(nh)))
		out = append(out, nh...)
	}
	return out, nil
}

// decodeRIBAttrs decodes a RIB entry attribute block into pa,
// reconstructing a full MP_REACH_NLRI (with the record's prefix as NLRI)
// from the abbreviated table-dump form. slot, when non-nil, is the borrowed
// decode's storage for this entry: the attributes decode into it interned,
// and unknown attribute values alias its copy of the block.
func decodeRIBAttrs(pa *bgp.PathAttributes, sc *ribScratch, slot *ribSlot, b []byte, prefix netip.Prefix) error {
	var rest []byte
	if slot != nil {
		rest = slot.raw[:0]
	}
	var nextHop netip.Addr
	sawMPReach := false
	for len(b) > 0 {
		if len(b) < 3 {
			return fmt.Errorf("%w: RIB attribute header", ErrTruncated)
		}
		flags, typ := b[0], b[1]
		var vlen, off int
		if flags&bgp.FlagExtLen != 0 {
			if len(b) < 4 {
				return fmt.Errorf("%w: RIB attribute ext length", ErrTruncated)
			}
			vlen = int(binary.BigEndian.Uint16(b[2:]))
			off = 4
		} else {
			vlen = int(b[2])
			off = 3
		}
		if len(b) < off+vlen {
			return fmt.Errorf("%w: RIB attribute value", ErrTruncated)
		}
		if typ == bgp.AttrMPReachNLRI {
			val := b[off : off+vlen]
			if len(val) < 1 || len(val) < 1+int(val[0]) {
				return fmt.Errorf("%w: abbreviated MP_REACH", ErrBadRecord)
			}
			nhLen := int(val[0])
			switch nhLen {
			case 4:
				nextHop = netip.AddrFrom4([4]byte(val[1:5]))
			case 16, 32:
				nextHop = netip.AddrFrom16([16]byte(val[1:17]))
			default:
				return fmt.Errorf("%w: MP_REACH next hop length %d", ErrBadRecord, nhLen)
			}
			sawMPReach = true
		} else {
			rest = append(rest, b[:off+vlen]...)
		}
		b = b[off+vlen:]
	}
	var err error
	if slot != nil {
		slot.raw = rest
		err = sc.attrs.DecodePathAttributes(pa, &slot.attrs, rest, bgp.DecodeBorrow|bgp.DecodeIntern)
	} else {
		*pa, err = bgp.DecodePathAttributes(rest)
	}
	if err != nil || !sawMPReach {
		return err
	}
	var m *bgp.MPReachNLRI
	if slot != nil {
		m = &slot.reach
	} else {
		m = new(bgp.MPReachNLRI)
	}
	*m = bgp.MPReachNLRI{
		AFI:     bgp.PrefixAFI(prefix),
		SAFI:    bgp.SAFIUnicast,
		NextHop: nextHop,
		NLRI:    append(m.NLRI[:0], prefix),
	}
	pa.MPReach = m
	return nil
}

func (r *RIB) appendBody(dst []byte) ([]byte, error) {
	if len(r.Entries) == 0 {
		return dst, ErrEmptyRIBEntry
	}
	dst = binary.BigEndian.AppendUint32(dst, r.Sequence)
	dst, err := bgp.AppendPrefix(dst, r.Prefix)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Entries)))
	for i := range r.Entries {
		e := &r.Entries[i]
		dst = binary.BigEndian.AppendUint16(dst, e.PeerIndex)
		ot := e.OriginatedTime.Unix()
		if ot < 0 || ot > math.MaxUint32 {
			return dst, ErrBadTimestamp
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(ot))
		at := len(dst)
		dst, err = appendRIBAttrs(append(dst, 0, 0), &e.Attrs)
		if err != nil {
			return dst, err
		}
		binary.BigEndian.PutUint16(dst[at:], uint16(len(dst)-at-2))
	}
	return dst, nil
}

// ribScratch is a Decoder's borrowed RIB workspace: the record it hands
// out, whose entries are reused record after record, the attribute decoder
// whose front caches intern every entry's AS path and aggregator, and one
// slot of storage per entry position.
type ribScratch struct {
	rib   RIB
	attrs bgp.Scratch
	slots []ribSlot
}

// ribSlot is the storage of one entry position of a borrowed RIB, so no
// entry shares memory with another.
type ribSlot struct {
	attrs bgp.AttrStore   // communities, unknown attributes, MP_UNREACH
	reach bgp.MPReachNLRI // the reconstructed MP_REACH
	raw   []byte          // the attribute block less its abbreviated MP_REACH
}

// decodeRIBInto fills r from the record body: the one RIB parse, for both
// decoder modes. sc, when non-nil, is the borrowed decode's workspace and r
// its record; otherwise r is fresh and every entry owns its memory.
func decodeRIBInto(r *RIB, sc *ribScratch, ts time.Time, b []byte, afi bgp.AFI) error {
	if len(b) < 4 {
		return fmt.Errorf("%w: RIB header", ErrTruncated)
	}
	r.Timestamp, r.Sequence = ts, binary.BigEndian.Uint32(b)
	b = b[4:]
	prefix, n, err := bgp.DecodePrefix(b, afi)
	if err != nil {
		return err
	}
	r.Prefix = prefix
	b = b[n:]
	if len(b) < 2 {
		return fmt.Errorf("%w: RIB entry count", ErrTruncated)
	}
	count := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	// Every entry takes at least its 8-byte header, so a count the body
	// cannot hold does not presize past it.
	if r.Entries == nil {
		r.Entries = make([]RIBEntry, 0, min(count, len(b)/8))
	} else {
		r.Entries = slices.Grow(r.Entries[:0], min(count, len(b)/8))
	}
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return fmt.Errorf("%w: RIB entry %d header", ErrTruncated, i)
		}
		r.Entries = append(r.Entries, RIBEntry{
			PeerIndex:      binary.BigEndian.Uint16(b),
			OriginatedTime: time.Unix(int64(binary.BigEndian.Uint32(b[2:])), 0).UTC(),
		})
		alen := int(binary.BigEndian.Uint16(b[6:]))
		b = b[8:]
		if len(b) < alen {
			return fmt.Errorf("%w: RIB entry %d attributes", ErrTruncated, i)
		}
		var slot *ribSlot
		if sc != nil {
			if i == len(sc.slots) {
				sc.slots = append(sc.slots, ribSlot{})
			}
			slot = &sc.slots[i]
		}
		if err := decodeRIBAttrs(&r.Entries[i].Attrs, sc, slot, b[:alen], prefix); err != nil {
			return err
		}
		b = b[alen:]
	}
	return nil
}
