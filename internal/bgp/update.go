package bgp

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
)

// Update is a decoded BGP UPDATE message (RFC 4271 §4.3). IPv4 routes ride
// in Withdrawn/NLRI; other families ride in the MP_REACH_NLRI and
// MP_UNREACH_NLRI attributes.
type Update struct {
	Withdrawn []netip.Prefix // IPv4 withdrawn routes
	Attrs     PathAttributes
	NLRI      []netip.Prefix // IPv4 announced routes
}

// Announced returns every prefix announced by the update across address
// families (top-level NLRI plus MP_REACH).
func (u *Update) Announced() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(u.NLRI))
	out = append(out, u.NLRI...)
	if u.Attrs.MPReach != nil {
		out = append(out, u.Attrs.MPReach.NLRI...)
	}
	return out
}

// WithdrawnAll returns every prefix withdrawn by the update across address
// families (top-level withdrawn routes plus MP_UNREACH).
func (u *Update) WithdrawnAll() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(u.Withdrawn))
	out = append(out, u.Withdrawn...)
	if u.Attrs.MPUnreach != nil {
		out = append(out, u.Attrs.MPUnreach.Withdrawn...)
	}
	return out
}

// AppendWireFormat appends the complete UPDATE message including the BGP
// common header.
func (u *Update) AppendWireFormat(dst []byte) ([]byte, error) {
	body, err := u.appendBody(nil)
	if err != nil {
		return dst, err
	}
	total := HeaderLen + len(body)
	if total > MaxMessageLen {
		return dst, fmt.Errorf("%w: UPDATE of %d bytes exceeds %d", ErrBadLength, total, MaxMessageLen)
	}
	dst = appendHeader(dst, uint16(total), MsgUpdate)
	return append(dst, body...), nil
}

func (u *Update) appendBody(dst []byte) ([]byte, error) {
	wd, err := AppendPrefixes(nil, u.Withdrawn)
	if err != nil {
		return dst, err
	}
	for _, p := range u.Withdrawn {
		if !p.Addr().Is4() {
			return dst, fmt.Errorf("%w: top-level withdrawn route %s is not IPv4", ErrBadPrefix, p)
		}
	}
	attrs, err := u.Attrs.AppendWireFormat(nil)
	if err != nil {
		return dst, err
	}
	for _, p := range u.NLRI {
		if !p.Addr().Is4() {
			return dst, fmt.Errorf("%w: top-level NLRI %s is not IPv4", ErrBadPrefix, p)
		}
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(wd)))
	dst = append(dst, wd...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(attrs)))
	dst = append(dst, attrs...)
	return AppendPrefixes(dst, u.NLRI)
}

func appendHeader(dst []byte, length uint16, typ MessageType) []byte {
	for i := 0; i < MarkerLen; i++ {
		dst = append(dst, 0xff)
	}
	dst = binary.BigEndian.AppendUint16(dst, length)
	return append(dst, byte(typ))
}

// DecodeHeader parses and validates the BGP common header at the start of
// b, returning the declared total message length and type.
func DecodeHeader(b []byte) (length int, typ MessageType, err error) {
	if len(b) < HeaderLen {
		return 0, 0, fmt.Errorf("%w: header needs %d bytes, have %d", ErrShortMessage, HeaderLen, len(b))
	}
	// The all-ones marker, as two word compares.
	if binary.LittleEndian.Uint64(b) != math.MaxUint64 || binary.LittleEndian.Uint64(b[8:MarkerLen]) != math.MaxUint64 {
		return 0, 0, ErrBadMarker
	}
	length = int(binary.BigEndian.Uint16(b[MarkerLen:]))
	typ = MessageType(b[MarkerLen+2])
	if length < HeaderLen || length > MaxMessageLen {
		return 0, 0, fmt.Errorf("%w: declared length %d", ErrBadLength, length)
	}
	return length, typ, nil
}

// decodeBody is the one UPDATE body parse, into s.u and s.attrs. The
// top-level prefix lists are decoded into s.wd and s.nlri and handed out
// only when non-empty, so an empty list is nil on a reused Scratch as on a
// fresh one, and its backing array survives for the next message.
func (s *Scratch) decodeBody(b []byte, df DecodeFlags) error {
	u := &s.u
	*u = Update{}
	s.pathID, s.aggID = 0, 0
	if len(b) < 2 {
		return fmt.Errorf("%w: missing withdrawn routes length", ErrShortMessage)
	}
	wdLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < wdLen {
		return fmt.Errorf("%w: withdrawn routes need %d bytes, have %d", ErrShortMessage, wdLen, len(b))
	}
	wd, err := appendDecodedPrefixes(s.wd[:0], b[:wdLen], AFIIPv4)
	if err != nil {
		return err
	}
	if s.wd = wd; len(wd) > 0 {
		u.Withdrawn = wd
	}
	b = b[wdLen:]
	if len(b) < 2 {
		return fmt.Errorf("%w: missing path attributes length", ErrShortMessage)
	}
	attrLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < attrLen {
		return fmt.Errorf("%w: attributes need %d bytes, have %d", ErrShortMessage, attrLen, len(b))
	}
	if err := decodePathAttributesInto(&u.Attrs, s, &s.attrs, df, b[:attrLen]); err != nil {
		return err
	}
	nlri, err := appendDecodedPrefixes(s.nlri[:0], b[attrLen:], AFIIPv4)
	if err != nil {
		return err
	}
	if s.nlri = nlri; len(nlri) > 0 {
		u.NLRI = nlri
	}
	return nil
}

// NewKeepalive returns the wire encoding of a KEEPALIVE message.
func NewKeepalive() []byte {
	return appendHeader(nil, HeaderLen, MsgKeepalive)
}
