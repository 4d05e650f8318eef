package mrt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Writer encodes MRT records to an io.Writer. It emits the four-octet-AS
// BGP4MP subtypes, as modern collectors do, except for a BGP4MPMessage or
// BGP4MPStateChange marked AS2.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer encoding to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// AppendRecord appends the MRT encoding of rec, common header included,
// to dst. The concrete type selects the MRT type and subtype. It refuses
// what the Reader would misread or reject: a time outside the header's
// 32-bit seconds (ErrBadTimestamp) and a body over MaxRecordLen
// (ErrRecordTooBig). On error it returns dst unchanged.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	var typ, subtype uint16
	var appendBody func([]byte) ([]byte, error)
	switch r := rec.(type) {
	case *BGP4MPMessage:
		typ, subtype, appendBody = TypeBGP4MP, SubtypeMessageAS4, r.appendBody
		if r.AS2 {
			subtype = SubtypeMessage
		}
	case *BGP4MPStateChange:
		typ, subtype, appendBody = TypeBGP4MP, SubtypeStateChangeAS4, r.appendBody
		if r.AS2 {
			subtype = SubtypeStateChange
		}
	case *PeerIndexTable:
		typ, subtype, appendBody = TypeTableDumpV2, SubtypePeerIndexTable, r.appendBody
	case *RIB:
		typ, subtype, appendBody = TypeTableDumpV2, SubtypeRIBIPv4Unicast, r.appendBody
		if !r.Prefix.Addr().Is4() {
			subtype = SubtypeRIBIPv6Unicast
		}
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnsupported, rec)
	}
	ts := rec.RecordTime().Unix()
	if ts < 0 || ts > math.MaxUint32 {
		return dst, ErrBadTimestamp
	}
	out := binary.BigEndian.AppendUint32(dst, uint32(ts))
	out = binary.BigEndian.AppendUint16(out, typ)
	out = binary.BigEndian.AppendUint16(out, subtype)
	out = append(out, 0, 0, 0, 0) // body length, set once the body is in
	out, err := appendBody(out)
	if err != nil {
		return dst, err
	}
	n := len(out) - len(dst) - HeaderLen
	if n > MaxRecordLen {
		return dst, fmt.Errorf("%w: %d bytes", ErrRecordTooBig, n)
	}
	binary.BigEndian.PutUint32(out[len(dst)+8:], uint32(n))
	return out, nil
}

// Write encodes one record with AppendRecord.
func (wr *Writer) Write(rec Record) error {
	buf, err := AppendRecord(wr.buf[:0], rec)
	if err != nil {
		return err
	}
	wr.buf = buf
	_, err = wr.w.Write(buf)
	return err
}
