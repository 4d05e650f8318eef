package mrt

import (
	"fmt"
	"time"

	"zombiescope/internal/bgp"
)

// Decoder decodes MRT record bodies, optionally reusing scratch record
// structs across calls.
//
// With Borrow unset every record owns its memory. With Borrow set, BGP4MP
// message and state-change records and TABLE_DUMP_V2 RIB records are
// decoded into the Decoder's internal scratch structs, each overwritten by
// the next Decode of its kind, and the caller must fully consume each
// record before the next Decode call (and before the body buffer is
// reused): BGP4MPMessage.Data aliases the body, and a RIB's entries, their
// communities, MP_REACH/UNREACH and unknown attributes are scratch storage
// (one slot per entry, so entries of one record never share memory). A
// borrowed RIB's AS paths and aggregators are interned, so they alone may
// be retained past the next Decode. PeerIndexTable records always own
// their memory and are safe to retain in either mode.
//
// A Decoder must not be shared between goroutines.
type Decoder struct {
	Borrow bool
	msg    BGP4MPMessage
	state  BGP4MPStateChange
	rib    *ribScratch // allocated by the first borrowed RIB
}

// Decode decodes a single MRT record body given its header fields.
// Record types this package does not model decode to (nil, nil).
func (d *Decoder) Decode(ts time.Time, typ, subtype uint16, body []byte) (Record, error) {
	switch typ {
	case TypeBGP4MP:
		switch subtype {
		case SubtypeMessage, SubtypeMessageAS4:
			var m *BGP4MPMessage
			if d.Borrow {
				m = &d.msg
			} else {
				m = &BGP4MPMessage{}
			}
			if err := decodeBGP4MPMessageInto(m, ts, body, subtype == SubtypeMessageAS4, d.Borrow); err != nil {
				return nil, err
			}
			return m, nil
		case SubtypeStateChange, SubtypeStateChangeAS4:
			var s *BGP4MPStateChange
			if d.Borrow {
				s = &d.state
			} else {
				s = &BGP4MPStateChange{}
			}
			if err := decodeBGP4MPStateChangeInto(s, ts, body, subtype == SubtypeStateChangeAS4); err != nil {
				return nil, err
			}
			return s, nil
		}
	case TypeTableDumpV2:
		switch subtype {
		case SubtypePeerIndexTable:
			return decodePeerIndexTable(ts, body)
		case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
			afi := bgp.AFIIPv4
			if subtype == SubtypeRIBIPv6Unicast {
				afi = bgp.AFIIPv6
			}
			var r *RIB
			var sc *ribScratch
			if d.Borrow {
				if d.rib == nil {
					d.rib = new(ribScratch)
				}
				r, sc = &d.rib.rib, d.rib
			} else {
				r = &RIB{}
			}
			if err := decodeRIBInto(r, sc, ts, body, afi); err != nil {
				return nil, err
			}
			return r, nil
		}
	}
	return nil, nil // unsupported; caller loop skips
}

// DecodeFramed decodes the one MRT record b holds, common header
// included, under the framing checks Reader applies: a short header or a
// body shorter than the header says is ErrTruncated, a length past
// MaxRecordLen ErrRecordTooBig. Bytes after the body are ErrBadRecord —
// b is one record, not a stream. With Borrow set the record aliases b.
// Record types this package does not model decode to (nil, nil).
func (d *Decoder) DecodeFramed(b []byte) (Record, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("%w: mid-header", ErrTruncated)
	}
	ts, typ, subtype, length := ParseHeader([HeaderLen]byte(b))
	if length > MaxRecordLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordTooBig, length)
	}
	switch body := b[HeaderLen:]; {
	case len(body) < int(length):
		return nil, fmt.Errorf("%w: record body: %d of %d bytes", ErrTruncated, len(body), length)
	case len(body) > int(length):
		return nil, fmt.Errorf("%w: %d bytes after the record", ErrBadRecord, len(body)-int(length))
	default:
		return d.Decode(ts, typ, subtype, body)
	}
}
