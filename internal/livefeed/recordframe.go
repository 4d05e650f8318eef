package livefeed

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"zombiescope/internal/mrt"
)

// appendRecordFrame appends one complete Record frame: seq, the collector
// name and the raw MRT record (see the package documentation for the
// layout). It copies raw, so raw may alias memory valid only for the call
// (a journal payload).
func appendRecordFrame(dst []byte, seq uint64, collector string, raw []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(collector)))
	dst = append(dst, collector...)
	dst = append(dst, raw...)
	sealFrame(dst[off:], FrameRecord)
	return dst
}

// decodeRecordFrame decodes a Record frame payload into the Event the
// Event frame of the same event decodes to: EventFromRecord of the
// record, with the sequence number and a copy of the record as Raw, and
// no Withdrawals where it found none (JSON omits an empty array, so the
// Event frame decodes to nil there). dec must borrow: the record is
// decoded in place, and EventFromRecord copies what it keeps. c, when not
// nil, shares the collector name with earlier frames.
func decodeRecordFrame(p []byte, dec *mrt.Decoder, c *decodeCache) (Event, error) {
	if len(p) < 8 {
		return Event{}, fmt.Errorf("record frame of %d bytes", len(p))
	}
	seq := binary.BigEndian.Uint64(p)
	n, k := binary.Uvarint(p[8:])
	if k <= 0 || n > uint64(len(p)-8-k) {
		return Event{}, fmt.Errorf("record frame %d: bad collector length", seq)
	}
	name, raw := p[8+k:8+k+int(n)], p[8+k+int(n):]
	rec, err := decodeRecord(dec, seq, raw)
	if err != nil {
		return Event{}, err
	}
	var collector string
	if c != nil {
		collector = c.name(name)
	} else {
		collector = string(name)
	}
	ev, _ := EventFromRecord(collector, rec, false)
	ev.Seq = seq
	ev.Raw = bytes.Clone(raw)
	if len(ev.Withdrawals) == 0 {
		ev.Withdrawals = nil
	}
	return ev, nil
}

// decodeRecord decodes the raw MRT record of event seq, a KindMRT
// payload. It is written only for streamable records, so anything but
// exactly one BGP4MP message or state change is an error.
func decodeRecord(dec *mrt.Decoder, seq uint64, raw []byte) (mrt.Record, error) {
	rec, err := dec.DecodeFramed(raw)
	if err != nil {
		return nil, fmt.Errorf("livefeed: event %d raw record: %w", seq, err)
	}
	if !Streamable(rec) {
		return nil, fmt.Errorf("livefeed: event %d raw record is not a BGP4MP message or state change", seq)
	}
	return rec, nil
}

// recordType returns the event type of event seq's raw MRT record from
// its common header alone: the framing decodeRecord checks (the length
// field names exactly the bytes after the header) and the BGP4MP subtype,
// without decoding the body. A journal is written only with records
// EventFromRecord built, so a header that passes is the header of one.
func recordType(seq uint64, raw []byte) (string, error) {
	if len(raw) < mrt.HeaderLen {
		return "", fmt.Errorf("livefeed: event %d raw record: %w: mid-header", seq, mrt.ErrTruncated)
	}
	if n := binary.BigEndian.Uint32(raw[8:]); uint64(n) != uint64(len(raw)-mrt.HeaderLen) {
		return "", fmt.Errorf("livefeed: event %d raw record: length field %d, %d bytes follow the header", seq, n, len(raw)-mrt.HeaderLen)
	}
	if binary.BigEndian.Uint16(raw[4:]) == mrt.TypeBGP4MP {
		switch binary.BigEndian.Uint16(raw[6:]) {
		case mrt.SubtypeMessage, mrt.SubtypeMessageAS4:
			return TypeUpdate, nil
		case mrt.SubtypeStateChange, mrt.SubtypeStateChangeAS4:
			return TypeState, nil
		}
	}
	return "", fmt.Errorf("livefeed: event %d raw record is not a BGP4MP message or state change", seq)
}
