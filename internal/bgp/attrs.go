package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
)

// Community is an RFC 1997 community value, conventionally written
// "asn:value" with each half in the high/low 16 bits.
type Community uint32

// NewCommunity packs the conventional asn:value form.
func NewCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// String renders the community in asn:value form.
func (c Community) String() string {
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xffff)
}

// Aggregator is the AGGREGATOR path attribute (RFC 4271 §5.1.7) in its
// four-octet-AS form. RIPE RIS beacons abuse the address as a BGP clock:
// 10.x.y.z where x.y.z is the 24-bit count of seconds since the start of
// the month (see the beacon package).
type Aggregator struct {
	ASN  ASN
	Addr netip.Addr // IPv4
}

// MPReachNLRI is the MP_REACH_NLRI attribute (RFC 4760 §3) announcing
// prefixes of a non-IPv4-unicast family together with their next hop.
type MPReachNLRI struct {
	AFI     AFI
	SAFI    SAFI
	NextHop netip.Addr
	NLRI    []netip.Prefix
}

// MPUnreachNLRI is the MP_UNREACH_NLRI attribute (RFC 4760 §4) withdrawing
// prefixes of a non-IPv4-unicast family.
type MPUnreachNLRI struct {
	AFI       AFI
	SAFI      SAFI
	Withdrawn []netip.Prefix
}

// RawAttr preserves an attribute this package does not model so that
// decode→encode round-trips are lossless.
type RawAttr struct {
	Flags uint8
	Type  uint8
	Value []byte
}

// PathAttributes carries the decoded path attributes of an UPDATE. Optional
// scalar attributes use Has* flags so the zero value encodes nothing.
type PathAttributes struct {
	HasOrigin bool
	Origin    Origin

	ASPath ASPath // encoded when non-empty

	NextHop netip.Addr // encoded when valid (IPv4 next hop)

	HasMED bool
	MED    uint32

	HasLocalPref bool
	LocalPref    uint32

	AtomicAggregate bool

	Aggregator *Aggregator

	Communities []Community

	MPReach   *MPReachNLRI
	MPUnreach *MPUnreachNLRI

	Unknown []RawAttr
}

func appendAttrHeader(dst []byte, flags, typ uint8, valLen int) []byte {
	if valLen > 255 {
		flags |= FlagExtLen
		dst = append(dst, flags, typ)
		dst = binary.BigEndian.AppendUint16(dst, uint16(valLen))
		return dst
	}
	flags &^= FlagExtLen
	return append(dst, flags, typ, byte(valLen))
}

// AppendWireFormat appends the attributes in canonical type order.
func (pa *PathAttributes) AppendWireFormat(dst []byte) ([]byte, error) {
	if pa.HasOrigin {
		dst = appendAttrHeader(dst, FlagTransitive, AttrOrigin, 1)
		dst = append(dst, byte(pa.Origin))
	}
	if len(pa.ASPath.Segments) > 0 {
		val, err := pa.ASPath.AppendWireFormat(nil)
		if err != nil {
			return dst, err
		}
		dst = appendAttrHeader(dst, FlagTransitive, AttrASPath, len(val))
		dst = append(dst, val...)
	}
	if pa.NextHop.IsValid() {
		if !pa.NextHop.Is4() {
			return dst, fmt.Errorf("%w: NEXT_HOP must be IPv4 (use MP_REACH_NLRI for IPv6)", ErrBadAttribute)
		}
		a := pa.NextHop.As4()
		dst = appendAttrHeader(dst, FlagTransitive, AttrNextHop, 4)
		dst = append(dst, a[:]...)
	}
	if pa.HasMED {
		dst = appendAttrHeader(dst, FlagOptional, AttrMED, 4)
		dst = binary.BigEndian.AppendUint32(dst, pa.MED)
	}
	if pa.HasLocalPref {
		dst = appendAttrHeader(dst, FlagTransitive, AttrLocalPref, 4)
		dst = binary.BigEndian.AppendUint32(dst, pa.LocalPref)
	}
	if pa.AtomicAggregate {
		dst = appendAttrHeader(dst, FlagTransitive, AttrAtomicAggregate, 0)
	}
	if pa.Aggregator != nil {
		if !pa.Aggregator.Addr.Is4() {
			return dst, fmt.Errorf("%w: AGGREGATOR address must be IPv4", ErrBadAttribute)
		}
		a := pa.Aggregator.Addr.As4()
		dst = appendAttrHeader(dst, FlagOptional|FlagTransitive, AttrAggregator, 8)
		dst = binary.BigEndian.AppendUint32(dst, uint32(pa.Aggregator.ASN))
		dst = append(dst, a[:]...)
	}
	if len(pa.Communities) > 0 {
		dst = appendAttrHeader(dst, FlagOptional|FlagTransitive, AttrCommunities, 4*len(pa.Communities))
		for _, c := range pa.Communities {
			dst = binary.BigEndian.AppendUint32(dst, uint32(c))
		}
	}
	if pa.MPReach != nil {
		val, err := pa.MPReach.appendValue(nil)
		if err != nil {
			return dst, err
		}
		dst = appendAttrHeader(dst, FlagOptional, AttrMPReachNLRI, len(val))
		dst = append(dst, val...)
	}
	if pa.MPUnreach != nil {
		val, err := pa.MPUnreach.appendValue(nil)
		if err != nil {
			return dst, err
		}
		dst = appendAttrHeader(dst, FlagOptional, AttrMPUnreachNLRI, len(val))
		dst = append(dst, val...)
	}
	for _, ra := range pa.Unknown {
		dst = appendAttrHeader(dst, ra.Flags, ra.Type, len(ra.Value))
		dst = append(dst, ra.Value...)
	}
	return dst, nil
}

func (m *MPReachNLRI) appendValue(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.AFI))
	dst = append(dst, byte(m.SAFI))
	if !m.NextHop.IsValid() {
		return dst, fmt.Errorf("%w: MP_REACH_NLRI next hop missing", ErrBadAttribute)
	}
	nh := m.NextHop.AsSlice()
	dst = append(dst, byte(len(nh)))
	dst = append(dst, nh...)
	dst = append(dst, 0) // reserved
	return AppendPrefixes(dst, m.NLRI)
}

func (m *MPUnreachNLRI) appendValue(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.AFI))
	dst = append(dst, byte(m.SAFI))
	return AppendPrefixes(dst, m.Withdrawn)
}

// DecodePathAttributes parses a full path-attributes block of exactly b.
// Every decoded value owns its memory (retain semantics); hot paths that
// can live with borrowed buffers decode through Scratch.DecodeUpdate
// instead.
func DecodePathAttributes(b []byte) (PathAttributes, error) {
	var pa PathAttributes
	err := decodePathAttributesInto(&pa, nil, nil, 0, b)
	return pa, err
}

// decodePathAttributesInto is the shared attribute-block walk. s, when
// non-nil, holds the front caches DecodeIntern looks up through; st, when
// non-nil, is the storage the communities, unknown attributes and
// MP_REACH/UNREACH are decoded into; df selects borrow/intern behavior per
// the DecodeFlags contract.
func decodePathAttributesInto(pa *PathAttributes, s *Scratch, st *AttrStore, df DecodeFlags, b []byte) error {
	for len(b) > 0 {
		if len(b) < 3 {
			return fmt.Errorf("%w: truncated attribute header", ErrBadAttribute)
		}
		flags, typ := b[0], b[1]
		var vlen, off int
		if flags&FlagExtLen != 0 {
			if len(b) < 4 {
				return fmt.Errorf("%w: truncated extended length", ErrBadAttribute)
			}
			vlen = int(binary.BigEndian.Uint16(b[2:]))
			off = 4
		} else {
			vlen = int(b[2])
			off = 3
		}
		if len(b) < off+vlen {
			return fmt.Errorf("%w: attribute %d value needs %d bytes, have %d", ErrBadAttribute, typ, vlen, len(b)-off)
		}
		val := b[off : off+vlen]
		if err := pa.decodeOne(df, s, st, flags, typ, val); err != nil {
			return err
		}
		b = b[off+vlen:]
	}
	return nil
}

func (pa *PathAttributes) decodeOne(df DecodeFlags, s *Scratch, st *AttrStore, flags, typ uint8, val []byte) error {
	switch typ {
	case AttrOrigin:
		if len(val) != 1 {
			return fmt.Errorf("%w: ORIGIN length %d", ErrBadAttribute, len(val))
		}
		pa.HasOrigin = true
		pa.Origin = Origin(val[0])
	case AttrASPath:
		var p ASPath
		var err error
		if df&DecodeIntern != 0 {
			p, err = s.fronts().paths.get(pathTable, val, decodeASPathKey)
		} else {
			p, err = DecodeASPath(val)
		}
		if err != nil {
			return err
		}
		pa.ASPath = p
	case AttrNextHop:
		if len(val) != 4 {
			return fmt.Errorf("%w: NEXT_HOP length %d", ErrBadAttribute, len(val))
		}
		pa.NextHop = netip.AddrFrom4([4]byte(val))
	case AttrMED:
		if len(val) != 4 {
			return fmt.Errorf("%w: MED length %d", ErrBadAttribute, len(val))
		}
		pa.HasMED = true
		pa.MED = binary.BigEndian.Uint32(val)
	case AttrLocalPref:
		if len(val) != 4 {
			return fmt.Errorf("%w: LOCAL_PREF length %d", ErrBadAttribute, len(val))
		}
		pa.HasLocalPref = true
		pa.LocalPref = binary.BigEndian.Uint32(val)
	case AttrAtomicAggregate:
		if len(val) != 0 {
			return fmt.Errorf("%w: ATOMIC_AGGREGATE length %d", ErrBadAttribute, len(val))
		}
		pa.AtomicAggregate = true
	case AttrAggregator:
		if len(val) != 8 {
			return fmt.Errorf("%w: AGGREGATOR length %d (want 8, four-octet AS)", ErrBadAttribute, len(val))
		}
		if df&DecodeIntern != 0 {
			pa.Aggregator, _ = s.fronts().aggs.get(aggTable, val, decodeAggregatorKey) // cannot fail
		} else {
			pa.Aggregator = &Aggregator{
				ASN:  ASN(binary.BigEndian.Uint32(val)),
				Addr: netip.AddrFrom4([4]byte(val[4:8])),
			}
		}
	case AttrCommunities:
		if len(val)%4 != 0 {
			return fmt.Errorf("%w: COMMUNITIES length %d", ErrBadAttribute, len(val))
		}
		c := pa.Communities[:0]
		if c == nil && st != nil {
			c = st.comms[:0]
		}
		if c == nil {
			c = make([]Community, 0, len(val)/4)
		}
		for i := 0; i+4 <= len(val); i += 4 {
			c = append(c, Community(binary.BigEndian.Uint32(val[i:])))
		}
		pa.Communities = c
		if st != nil {
			st.comms = c
		}
	case AttrMPReachNLRI:
		var m *MPReachNLRI
		if st != nil {
			m = &st.reach
			*m = MPReachNLRI{NLRI: m.NLRI[:0]}
		} else {
			m = &MPReachNLRI{}
		}
		if err := decodeMPReachInto(m, val); err != nil {
			return err
		}
		if len(m.NLRI) == 0 {
			m.NLRI = nil // as the allocating decode leaves it
		}
		pa.MPReach = m
	case AttrMPUnreachNLRI:
		var m *MPUnreachNLRI
		if st != nil {
			m = &st.unreach
			*m = MPUnreachNLRI{Withdrawn: m.Withdrawn[:0]}
		} else {
			m = &MPUnreachNLRI{}
		}
		if err := decodeMPUnreachInto(m, val); err != nil {
			return err
		}
		if len(m.Withdrawn) == 0 {
			m.Withdrawn = nil // as the allocating decode leaves it
		}
		pa.MPUnreach = m
	default:
		// Clone only in the retain path: a borrowed decode hands the
		// caller a value aliasing the input buffer, per DecodeBorrow.
		if df&DecodeBorrow == 0 {
			val = slices.Clone(val)
		}
		u := pa.Unknown
		if u == nil && st != nil {
			u = st.unknown[:0]
		}
		pa.Unknown = append(u, RawAttr{Flags: flags, Type: typ, Value: val})
		if st != nil {
			st.unknown = pa.Unknown
		}
	}
	return nil
}

func decodeMPReachInto(m *MPReachNLRI, val []byte) error {
	if len(val) < 5 {
		return fmt.Errorf("%w: MP_REACH_NLRI too short", ErrBadAttribute)
	}
	m.AFI = AFI(binary.BigEndian.Uint16(val))
	m.SAFI = SAFI(val[2])
	nhLen := int(val[3])
	if len(val) < 4+nhLen+1 {
		return fmt.Errorf("%w: MP_REACH_NLRI next hop truncated", ErrBadAttribute)
	}
	nhBytes := val[4 : 4+nhLen]
	switch nhLen {
	case 4:
		m.NextHop = netip.AddrFrom4([4]byte(nhBytes))
	case 16, 32:
		// A 32-byte next hop carries global + link-local; keep the global.
		m.NextHop = netip.AddrFrom16([16]byte(nhBytes[:16]))
	default:
		return fmt.Errorf("%w: MP_REACH_NLRI next hop length %d", ErrBadAttribute, nhLen)
	}
	rest := val[4+nhLen+1:] // skip reserved byte
	nlri, err := appendDecodedPrefixes(m.NLRI, rest, m.AFI)
	if err != nil {
		return err
	}
	m.NLRI = nlri
	return nil
}

func decodeMPUnreachInto(m *MPUnreachNLRI, val []byte) error {
	if len(val) < 3 {
		return fmt.Errorf("%w: MP_UNREACH_NLRI too short", ErrBadAttribute)
	}
	m.AFI = AFI(binary.BigEndian.Uint16(val))
	m.SAFI = SAFI(val[2])
	wd, err := appendDecodedPrefixes(m.Withdrawn, val[3:], m.AFI)
	if err != nil {
		return err
	}
	m.Withdrawn = wd
	return nil
}
