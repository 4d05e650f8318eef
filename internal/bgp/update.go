package bgp

import (
	"encoding/binary"
	"fmt"
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
	for i := 0; i < MarkerLen; i++ {
		if b[i] != 0xff {
			return 0, 0, ErrBadMarker
		}
	}
	length = int(binary.BigEndian.Uint16(b[MarkerLen:]))
	typ = MessageType(b[MarkerLen+2])
	if length < HeaderLen || length > MaxMessageLen {
		return 0, 0, fmt.Errorf("%w: declared length %d", ErrBadLength, length)
	}
	return length, typ, nil
}

// DecodeUpdate parses a full UPDATE message (header included) from b,
// which must contain exactly one message.
func DecodeUpdate(b []byte) (*Update, error) {
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
	return DecodeUpdateBody(b[HeaderLen:length])
}

// DecodeUpdateBody parses an UPDATE body (after the common header).
func DecodeUpdateBody(b []byte) (*Update, error) {
	u := &Update{}
	if err := decodeUpdateBodyInto(u, nil, nil, 0, b); err != nil {
		return nil, err
	}
	return u, nil
}

// decodeUpdateBodyInto is the shared UPDATE body parse, filling u in
// place. s, st and df thread the scratch workspace, the attribute storage
// and the decode flags down to the attribute walk (nil, nil, 0 for the
// allocating retain path).
func decodeUpdateBodyInto(u *Update, s *Scratch, st *AttrStore, df DecodeFlags, b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("%w: missing withdrawn routes length", ErrShortMessage)
	}
	wdLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < wdLen {
		return fmt.Errorf("%w: withdrawn routes need %d bytes, have %d", ErrShortMessage, wdLen, len(b))
	}
	wd, err := appendDecodedPrefixes(u.Withdrawn, b[:wdLen], AFIIPv4)
	if err != nil {
		return err
	}
	u.Withdrawn = wd
	b = b[wdLen:]
	if len(b) < 2 {
		return fmt.Errorf("%w: missing path attributes length", ErrShortMessage)
	}
	attrLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < attrLen {
		return fmt.Errorf("%w: attributes need %d bytes, have %d", ErrShortMessage, attrLen, len(b))
	}
	if err := decodePathAttributesInto(&u.Attrs, s, st, df, b[:attrLen]); err != nil {
		return err
	}
	nlri, err := appendDecodedPrefixes(u.NLRI, b[attrLen:], AFIIPv4)
	if err != nil {
		return err
	}
	u.NLRI = nlri
	return nil
}

// NewKeepalive returns the wire encoding of a KEEPALIVE message.
func NewKeepalive() []byte {
	return appendHeader(nil, HeaderLen, MsgKeepalive)
}
