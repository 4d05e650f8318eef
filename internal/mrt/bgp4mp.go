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

// Update decodes the carried BGP message as an UPDATE, into a fresh
// workspace at retain semantics: every value it returns owns its memory.
func (m *BGP4MPMessage) Update() (*bgp.Update, error) {
	return new(bgp.Scratch).DecodeUpdate(m.Data, m.DecodeFlags())
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
	// AS2 marks the BGP4MP_STATE_CHANGE subtype, whose peer and local ASNs
	// are two octets wide, as BGP4MPMessage.AS2 does for messages. The
	// zero value is BGP4MP_STATE_CHANGE_AS4.
	AS2      bool
	OldState SessionState
	NewState SessionState
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

// decodeSession reads the session context BGP4MPMessage.appendBody
// writes, its ASNs four octets wide with as4, into the fields it is
// handed, and returns the bytes after it; what names the record in a
// truncation error. It writes the record's fields in place: returning them
// in a struct to copy from measurably slowed the message decode.
func decodeSession(b []byte, as4 bool, what string, peerAS, localAS *bgp.ASN, ifIndex *uint16, afi *bgp.AFI, peer, local *netip.Addr) ([]byte, error) {
	asLen := 2
	if as4 {
		asLen = 4
	}
	if len(b) < 2*asLen+4 {
		return nil, fmt.Errorf("%w: %s header", ErrTruncated, what)
	}
	if as4 {
		*peerAS, *localAS = bgp.ASN(binary.BigEndian.Uint32(b)), bgp.ASN(binary.BigEndian.Uint32(b[4:]))
	} else {
		*peerAS, *localAS = bgp.ASN(binary.BigEndian.Uint16(b)), bgp.ASN(binary.BigEndian.Uint16(b[2:]))
	}
	b = b[2*asLen:]
	*ifIndex, *afi = binary.BigEndian.Uint16(b), bgp.AFI(binary.BigEndian.Uint16(b[2:]))
	b = b[4:]
	switch {
	case *afi != bgp.AFIIPv4 && *afi != bgp.AFIIPv6:
		return nil, fmt.Errorf("%w: session AFI %d", ErrBadRecord, *afi)
	case *afi == bgp.AFIIPv4 && len(b) >= 8:
		*peer, *local = netip.AddrFrom4([4]byte(b[:4])), netip.AddrFrom4([4]byte(b[4:8]))
		return b[8:], nil
	case *afi == bgp.AFIIPv6 && len(b) >= 32:
		*peer, *local = netip.AddrFrom16([16]byte(b[:16])), netip.AddrFrom16([16]byte(b[16:32]))
		return b[32:], nil
	}
	return nil, fmt.Errorf("%w: session addresses", ErrTruncated)
}

// appendBody serializes the record body (after the MRT common header): the
// session context (peer and local AS, two octets wide with AS2, interface
// index, AFI, the address pair), then Data.
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
	switch m.AFI {
	case bgp.AFIIPv4:
		if !m.PeerIP.Is4() || !m.LocalIP.Is4() {
			return dst, fmt.Errorf("%w: AFI IPv4 with non-IPv4 session address", ErrBadRecord)
		}
		p, l := m.PeerIP.As4(), m.LocalIP.As4()
		dst = append(append(dst, p[:]...), l[:]...)
	case bgp.AFIIPv6:
		if m.PeerIP.Is4() || m.LocalIP.Is4() {
			return dst, fmt.Errorf("%w: AFI IPv6 with IPv4 session address", ErrBadRecord)
		}
		p, l := m.PeerIP.As16(), m.LocalIP.As16()
		dst = append(append(dst, p[:]...), l[:]...)
	default:
		return dst, fmt.Errorf("%w: session AFI %d", ErrBadRecord, m.AFI)
	}
	return append(dst, m.Data...), nil
}

// decodeBGP4MPMessageInto fills m from the record body. With borrow set,
// m.Data aliases b and is only valid as long as the caller keeps b
// intact; otherwise it is an owning copy. Every field of m is assigned on
// success, so scratch structs can be reused across calls.
func decodeBGP4MPMessageInto(m *BGP4MPMessage, ts time.Time, b []byte, as4, borrow bool) error {
	b, err := decodeSession(b, as4, "BGP4MP message", &m.PeerAS, &m.LocalAS, &m.IfIndex, &m.AFI, &m.PeerIP, &m.LocalIP)
	if err != nil {
		return err
	}
	m.Timestamp, m.AS2 = ts, !as4
	if borrow {
		m.Data = b
	} else {
		m.Data = bytes.Clone(b) // empty, not nil, like the borrowed alias
	}
	return nil
}

// appendBody serializes the record body: a state change's body is a
// message body whose data is the old and the new state.
func (s *BGP4MPStateChange) appendBody(dst []byte) ([]byte, error) {
	var states [4]byte
	m := BGP4MPMessage{PeerAS: s.PeerAS, LocalAS: s.LocalAS, IfIndex: s.IfIndex, AFI: s.AFI, PeerIP: s.PeerIP, LocalIP: s.LocalIP, AS2: s.AS2,
		Data: binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(states[:0], uint16(s.OldState)), uint16(s.NewState))}
	return m.appendBody(dst)
}

// decodeBGP4MPStateChangeInto fills s from the record body. State-change
// records carry no byte slices, so a decoded record never aliases b;
// every field is assigned on success, allowing scratch reuse.
func decodeBGP4MPStateChangeInto(s *BGP4MPStateChange, ts time.Time, b []byte, as4 bool) error {
	b, err := decodeSession(b, as4, "BGP4MP state change", &s.PeerAS, &s.LocalAS, &s.IfIndex, &s.AFI, &s.PeerIP, &s.LocalIP)
	if err != nil {
		return err
	}
	s.Timestamp, s.AS2 = ts, !as4
	if len(b) < 4 {
		return fmt.Errorf("%w: state change states", ErrTruncated)
	}
	s.OldState = SessionState(binary.BigEndian.Uint16(b))
	s.NewState = SessionState(binary.BigEndian.Uint16(b[2:]))
	return nil
}
