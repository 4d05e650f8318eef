package mrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Reader decodes MRT records sequentially from an io.Reader. It returns
// io.EOF after the last record. Records of types this package does not
// model are skipped transparently.
//
// Record bodies are read into one private buffer that grows as records
// need. Every decoded record owns its memory, so the reuse is invisible to
// callers.
type Reader struct {
	r      io.Reader
	header [HeaderLen]byte
	body   []byte // record-body buffer, cap-reused across records
	dec    Decoder
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Next returns the next decoded record, or io.EOF at end of input.
func (rd *Reader) Next() (Record, error) {
	for {
		rec, err := rd.next()
		if err != nil {
			return nil, err
		}
		if rec != nil {
			return rec, nil
		}
		// Unsupported record: skip and continue.
	}
}

func (rd *Reader) next() (Record, error) {
	if _, err := io.ReadFull(rd.r, rd.header[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: mid-header", ErrTruncated)
		}
		return nil, err
	}
	ts, typ, subtype, length := ParseHeader(rd.header)
	if length > MaxRecordLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordTooBig, length)
	}
	if cap(rd.body) < int(length) {
		// Grow past the record so nearby records of similar size reuse.
		rd.body = make([]byte, max(int(length), 2*cap(rd.body)))
	}
	body := rd.body[:length]
	if _, err := io.ReadFull(rd.r, body); err != nil {
		return nil, fmt.Errorf("%w: record body: %v", ErrTruncated, err)
	}
	return rd.dec.Decode(ts, typ, subtype, body)
}

// ParseHeader splits an MRT common header into its fields.
func ParseHeader(h [HeaderLen]byte) (ts time.Time, typ, subtype uint16, length uint32) {
	ts = time.Unix(int64(binary.BigEndian.Uint32(h[0:])), 0).UTC()
	typ = binary.BigEndian.Uint16(h[4:])
	subtype = binary.BigEndian.Uint16(h[6:])
	length = binary.BigEndian.Uint32(h[8:])
	return ts, typ, subtype, length
}

// ReadAll decodes every record from r.
func ReadAll(r io.Reader) ([]Record, error) {
	rd := NewReader(r)
	var out []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
