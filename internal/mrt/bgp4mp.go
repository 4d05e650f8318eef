package mrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"time"

	"zombiescope/internal/bgp"
)

// BGP4MPMessage is a BGP4MP_MESSAGE(_AS4) record: one BGP message as
// exchanged between a collector and one of its peers, with addressing
// context. Data holds the raw BGP message including the common header.
type BGP4MPMessage struct {
	Timestamp time.Time
	PeerAS    bgp.ASN
	LocalAS   bgp.ASN
	IfIndex   uint16
	AFI       bgp.AFI // address family of the *session* addresses below
	PeerIP    netip.Addr
	LocalIP   netip.Addr
	// AS2 marks the BGP4MP_MESSAGE subtype: a two-octet-AS session, whose
	// ASNs above and in Data's AS_PATH and AGGREGATOR are two octets wide.
	// The zero value is BGP4MP_MESSAGE_AS4.
	AS2  bool
	Data []byte
}

// RecordTime implements Record.
func (m *BGP4MPMessage) RecordTime() time.Time { return m.Timestamp }

// DecodeFlags is bgp.DecodeAS2 for a two-octet session's message and 0
// otherwise: decoders of Data add it to their own flags.
func (m *BGP4MPMessage) DecodeFlags() bgp.DecodeFlags {
	if m.AS2 {
		return bgp.DecodeAS2
	}
	return 0
}

// Update decodes the carried BGP message as an UPDATE. Every value it
// returns owns its memory.
func (m *BGP4MPMessage) Update() (*bgp.Update, error) {
	if m.AS2 {
		return new(bgp.Scratch).DecodeUpdate(m.Data, bgp.DecodeAS2)
	}
	return bgp.DecodeUpdate(m.Data)
}

// BGP4MPStateChange is a BGP4MP_STATE_CHANGE(_AS4) record reporting a peer
// session FSM transition.
type BGP4MPStateChange struct {
	Timestamp time.Time
	PeerAS    bgp.ASN
	LocalAS   bgp.ASN
	IfIndex   uint16
	AFI       bgp.AFI
	PeerIP    netip.Addr
	LocalIP   netip.Addr
	OldState  SessionState
	NewState  SessionState
}

// RecordTime implements Record.
func (s *BGP4MPStateChange) RecordTime() time.Time { return s.Timestamp }

// Down reports whether the transition leaves Established, i.e. the session
// dropped and the peer's routes must be considered flushed.
func (s *BGP4MPStateChange) Down() bool {
	return s.OldState == StateEstablished && s.NewState != StateEstablished
}

// Up reports whether the transition enters Established.
func (s *BGP4MPStateChange) Up() bool { return s.NewState == StateEstablished }

func appendAddrPair(dst []byte, afi bgp.AFI, peer, local netip.Addr) ([]byte, error) {
	switch afi {
	case bgp.AFIIPv4:
		if !peer.Is4() || !local.Is4() {
			return dst, fmt.Errorf("%w: AFI IPv4 with non-IPv4 session address", ErrBadRecord)
		}
		p, l := peer.As4(), local.As4()
		dst = append(dst, p[:]...)
		dst = append(dst, l[:]...)
	case bgp.AFIIPv6:
		if peer.Is4() || local.Is4() {
			return dst, fmt.Errorf("%w: AFI IPv6 with IPv4 session address", ErrBadRecord)
		}
		p, l := peer.As16(), local.As16()
		dst = append(dst, p[:]...)
		dst = append(dst, l[:]...)
	default:
		return dst, fmt.Errorf("%w: session AFI %d", ErrBadRecord, afi)
	}
	return dst, nil
}

func decodeAddrPair(b []byte, afi bgp.AFI) (peer, local netip.Addr, n int, err error) {
	var size int
	switch afi {
	case bgp.AFIIPv4:
		size = 4
	case bgp.AFIIPv6:
		size = 16
	default:
		return netip.Addr{}, netip.Addr{}, 0, fmt.Errorf("%w: session AFI %d", ErrBadRecord, afi)
	}
	if len(b) < 2*size {
		return netip.Addr{}, netip.Addr{}, 0, fmt.Errorf("%w: session addresses", ErrTruncated)
	}
	if size == 4 {
		peer = netip.AddrFrom4([4]byte(b[:4]))
		local = netip.AddrFrom4([4]byte(b[4:8]))
	} else {
		peer = netip.AddrFrom16([16]byte(b[:16]))
		local = netip.AddrFrom16([16]byte(b[16:32]))
	}
	return peer, local, 2 * size, nil
}

// appendBody serializes the record body (after the MRT common header).
func (m *BGP4MPMessage) appendBody(dst []byte) ([]byte, error) {
	if m.AS2 {
		if m.PeerAS > math.MaxUint16 || m.LocalAS > math.MaxUint16 {
			return dst, fmt.Errorf("%w: ASN %d or %d on a two-octet session", ErrBadRecord, m.PeerAS, m.LocalAS)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(m.PeerAS))
		dst = binary.BigEndian.AppendUint16(dst, uint16(m.LocalAS))
	} else {
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.PeerAS))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.LocalAS))
	}
	dst = binary.BigEndian.AppendUint16(dst, m.IfIndex)
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.AFI))
	dst, err := appendAddrPair(dst, m.AFI, m.PeerIP, m.LocalIP)
	if err != nil {
		return dst, err
	}
	return append(dst, m.Data...), nil
}

// decodeBGP4MPMessageInto fills m from the record body. With borrow set,
// m.Data aliases b and is only valid as long as the caller keeps b
// intact; otherwise it is an owning copy. Every field of m is assigned on
// success, so scratch structs can be reused across calls.
func decodeBGP4MPMessageInto(m *BGP4MPMessage, ts time.Time, b []byte, as4, borrow bool) error {
	asLen := 2
	if as4 {
		asLen = 4
	}
	need := 2*asLen + 4
	if len(b) < need {
		return fmt.Errorf("%w: BGP4MP message header", ErrTruncated)
	}
	m.Timestamp = ts
	m.AS2 = !as4
	if as4 {
		m.PeerAS = bgp.ASN(binary.BigEndian.Uint32(b))
		m.LocalAS = bgp.ASN(binary.BigEndian.Uint32(b[4:]))
	} else {
		m.PeerAS = bgp.ASN(binary.BigEndian.Uint16(b))
		m.LocalAS = bgp.ASN(binary.BigEndian.Uint16(b[2:]))
	}
	b = b[2*asLen:]
	m.IfIndex = binary.BigEndian.Uint16(b)
	m.AFI = bgp.AFI(binary.BigEndian.Uint16(b[2:]))
	b = b[4:]
	peer, local, n, err := decodeAddrPair(b, m.AFI)
	if err != nil {
		return err
	}
	m.PeerIP, m.LocalIP = peer, local
	if borrow {
		m.Data = b[n:]
	} else {
		m.Data = bytes.Clone(b[n:]) // empty, not nil, like the borrowed alias
	}
	return nil
}

func (s *BGP4MPStateChange) appendBody(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.PeerAS))
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.LocalAS))
	dst = binary.BigEndian.AppendUint16(dst, s.IfIndex)
	dst = binary.BigEndian.AppendUint16(dst, uint16(s.AFI))
	dst, err := appendAddrPair(dst, s.AFI, s.PeerIP, s.LocalIP)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(s.OldState))
	dst = binary.BigEndian.AppendUint16(dst, uint16(s.NewState))
	return dst, nil
}

// decodeBGP4MPStateChangeInto fills s from the record body. State-change
// records carry no byte slices, so a decoded record never aliases b;
// every field is assigned on success, allowing scratch reuse.
func decodeBGP4MPStateChangeInto(s *BGP4MPStateChange, ts time.Time, b []byte, as4 bool) error {
	asLen := 2
	if as4 {
		asLen = 4
	}
	if len(b) < 2*asLen+4 {
		return fmt.Errorf("%w: BGP4MP state change header", ErrTruncated)
	}
	s.Timestamp = ts
	if as4 {
		s.PeerAS = bgp.ASN(binary.BigEndian.Uint32(b))
		s.LocalAS = bgp.ASN(binary.BigEndian.Uint32(b[4:]))
	} else {
		s.PeerAS = bgp.ASN(binary.BigEndian.Uint16(b))
		s.LocalAS = bgp.ASN(binary.BigEndian.Uint16(b[2:]))
	}
	b = b[2*asLen:]
	s.IfIndex = binary.BigEndian.Uint16(b)
	s.AFI = bgp.AFI(binary.BigEndian.Uint16(b[2:]))
	b = b[4:]
	peer, local, n, err := decodeAddrPair(b, s.AFI)
	if err != nil {
		return err
	}
	s.PeerIP, s.LocalIP = peer, local
	b = b[n:]
	if len(b) < 4 {
		return fmt.Errorf("%w: state change states", ErrTruncated)
	}
	s.OldState = SessionState(binary.BigEndian.Uint16(b))
	s.NewState = SessionState(binary.BigEndian.Uint16(b[2:]))
	return nil
}
