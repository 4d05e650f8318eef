// Package bgp implements the subset of the BGP-4 protocol (RFC 4271) wire
// format needed to generate and analyze routing data: UPDATE messages with
// their path attributes, including the multiprotocol extensions for IPv6
// (RFC 4760) and four-octet AS numbers (RFC 6793).
//
// The package follows a layered-codec idiom: every message and attribute
// type supports DecodeFromBytes to parse wire data in place and
// AppendWireFormat to serialize without intermediate allocation. All
// AS_PATH attributes are encoded with four-octet AS numbers, matching a
// session on which the four-octet AS capability has been negotiated (as is
// the case for route-collector sessions recorded as BGP4MP_MESSAGE_AS4).
package bgp

import (
	"errors"
	"fmt"
)

// ASN is a four-octet autonomous system number (RFC 6793).
type ASN uint32

// String renders the ASN in the canonical "ASxxxx" plain form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// MessageType identifies the BGP message type carried in the common header.
type MessageType uint8

// BGP message types (RFC 4271 §4.1).
const (
	MsgOpen         MessageType = 1
	MsgUpdate       MessageType = 2
	MsgNotification MessageType = 3
	MsgKeepalive    MessageType = 4
)

func (t MessageType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	default:
		return fmt.Sprintf("UNKNOWN(%d)", uint8(t))
	}
}

// AFI is an address family identifier.
type AFI uint16

// Address family identifiers used by the multiprotocol extensions.
const (
	AFIIPv4 AFI = 1
	AFIIPv6 AFI = 2
)

func (a AFI) String() string {
	switch a {
	case AFIIPv4:
		return "IPv4"
	case AFIIPv6:
		return "IPv6"
	default:
		return fmt.Sprintf("AFI(%d)", uint16(a))
	}
}

// SAFI is a subsequent address family identifier.
type SAFI uint8

// Subsequent address family identifiers.
const (
	SAFIUnicast   SAFI = 1
	SAFIMulticast SAFI = 2
)

// Path attribute type codes (RFC 4271 §4.3, RFC 1997, RFC 4760, RFC 6793).
const (
	AttrOrigin          uint8 = 1
	AttrASPath          uint8 = 2
	AttrNextHop         uint8 = 3
	AttrMED             uint8 = 4
	AttrLocalPref       uint8 = 5
	AttrAtomicAggregate uint8 = 6
	AttrAggregator      uint8 = 7
	AttrCommunities     uint8 = 8
	AttrMPReachNLRI     uint8 = 14
	AttrMPUnreachNLRI   uint8 = 15
	AttrAS4Path         uint8 = 17
	AttrAS4Aggregator   uint8 = 18
)

// asTrans is AS_TRANS (RFC 6793 §9), the two-octet ASN a two-octet-AS
// session carries for each four-octet one.
const asTrans = 23456

// Path attribute flag bits.
const (
	FlagOptional   uint8 = 0x80
	FlagTransitive uint8 = 0x40
	FlagPartial    uint8 = 0x20
	FlagExtLen     uint8 = 0x10
)

// Origin attribute values (RFC 4271 §5.1.1).
type Origin uint8

// Origin codes.
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "INCOMPLETE"
	default:
		return fmt.Sprintf("Origin(%d)", uint8(o))
	}
}

// MarkerLen is the length of the all-ones marker that opens every BGP
// message header.
const MarkerLen = 16

// HeaderLen is the length of the BGP common header: marker, two-byte
// length, one-byte type.
const HeaderLen = MarkerLen + 3

// MaxMessageLen is the maximum BGP message size (RFC 4271 §4.1).
const MaxMessageLen = 4096

// Sentinel decode errors. Wire-format errors returned by this package wrap
// one of these, so callers can classify failures with errors.Is.
var (
	ErrShortMessage  = errors.New("bgp: truncated message")
	ErrBadMarker     = errors.New("bgp: header marker is not all ones")
	ErrBadLength     = errors.New("bgp: invalid length field")
	ErrBadAttribute  = errors.New("bgp: malformed path attribute")
	ErrBadPrefix     = errors.New("bgp: malformed NLRI prefix")
	ErrUnknownType   = errors.New("bgp: unknown message type")
	ErrBadAddrFamily = errors.New("bgp: unsupported address family")
)
