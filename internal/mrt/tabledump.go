package mrt

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
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

// decodeRIBAttrs decodes a RIB entry attribute block, reconstructing a full
// MP_REACH_NLRI (with the record's prefix as NLRI) from the abbreviated
// table-dump form.
func decodeRIBAttrs(b []byte, prefix netip.Prefix) (bgp.PathAttributes, error) {
	var rest []byte
	var nextHop netip.Addr
	sawMPReach := false
	for len(b) > 0 {
		if len(b) < 3 {
			return bgp.PathAttributes{}, fmt.Errorf("%w: RIB attribute header", ErrTruncated)
		}
		flags, typ := b[0], b[1]
		var vlen, off int
		if flags&bgp.FlagExtLen != 0 {
			if len(b) < 4 {
				return bgp.PathAttributes{}, fmt.Errorf("%w: RIB attribute ext length", ErrTruncated)
			}
			vlen = int(binary.BigEndian.Uint16(b[2:]))
			off = 4
		} else {
			vlen = int(b[2])
			off = 3
		}
		if len(b) < off+vlen {
			return bgp.PathAttributes{}, fmt.Errorf("%w: RIB attribute value", ErrTruncated)
		}
		if typ == bgp.AttrMPReachNLRI {
			val := b[off : off+vlen]
			if len(val) < 1 || len(val) < 1+int(val[0]) {
				return bgp.PathAttributes{}, fmt.Errorf("%w: abbreviated MP_REACH", ErrBadRecord)
			}
			nhLen := int(val[0])
			switch nhLen {
			case 4:
				nextHop = netip.AddrFrom4([4]byte(val[1:5]))
			case 16, 32:
				nextHop = netip.AddrFrom16([16]byte(val[1:17]))
			default:
				return bgp.PathAttributes{}, fmt.Errorf("%w: MP_REACH next hop length %d", ErrBadRecord, nhLen)
			}
			sawMPReach = true
		} else {
			rest = append(rest, b[:off+vlen]...)
		}
		b = b[off+vlen:]
	}
	attrs, err := bgp.DecodePathAttributes(rest)
	if err != nil {
		return bgp.PathAttributes{}, err
	}
	if sawMPReach {
		attrs.MPReach = &bgp.MPReachNLRI{
			AFI:     bgp.PrefixAFI(prefix),
			SAFI:    bgp.SAFIUnicast,
			NextHop: nextHop,
			NLRI:    []netip.Prefix{prefix},
		}
	}
	return attrs, nil
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

func decodeRIB(ts time.Time, b []byte, afi bgp.AFI) (*RIB, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: RIB header", ErrTruncated)
	}
	r := &RIB{Timestamp: ts, Sequence: binary.BigEndian.Uint32(b)}
	b = b[4:]
	prefix, n, err := bgp.DecodePrefix(b, afi)
	if err != nil {
		return nil, err
	}
	r.Prefix = prefix
	b = b[n:]
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: RIB entry count", ErrTruncated)
	}
	count := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	r.Entries = make([]RIBEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return nil, fmt.Errorf("%w: RIB entry %d header", ErrTruncated, i)
		}
		var e RIBEntry
		e.PeerIndex = binary.BigEndian.Uint16(b)
		e.OriginatedTime = time.Unix(int64(binary.BigEndian.Uint32(b[2:])), 0).UTC()
		alen := int(binary.BigEndian.Uint16(b[6:]))
		b = b[8:]
		if len(b) < alen {
			return nil, fmt.Errorf("%w: RIB entry %d attributes", ErrTruncated, i)
		}
		attrs, err := decodeRIBAttrs(b[:alen], prefix)
		if err != nil {
			return nil, err
		}
		e.Attrs = attrs
		b = b[alen:]
		r.Entries = append(r.Entries, e)
	}
	return r, nil
}
