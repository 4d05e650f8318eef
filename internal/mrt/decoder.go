package mrt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zombiescope/internal/bgp"
)

// Decoder decodes MRT record bodies, optionally reusing scratch record
// structs across calls.
//
// With Borrow unset, Decode is equivalent to DecodeRecord: every record
// owns its memory. With Borrow set, BGP4MP message and state-change
// records are decoded into the Decoder's internal scratch structs —
// overwritten by the next Decode — and BGP4MPMessage.Data aliases the
// body buffer, so the caller must fully consume each record before the
// next Decode call (and before the buffer is reused). TABLE_DUMP_V2
// records (RIB, PeerIndexTable) are always freshly allocated and never
// alias the body; they are safe to retain in either mode.
//
// A Decoder must not be shared between goroutines.
type Decoder struct {
	Borrow bool
	msg    BGP4MPMessage
	state  BGP4MPStateChange
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
		case SubtypeRIBIPv4Unicast:
			return decodeRIB(ts, body, bgp.AFIIPv4)
		case SubtypeRIBIPv6Unicast:
			return decodeRIB(ts, body, bgp.AFIIPv6)
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

// PoolStats is a snapshot of the package-wide pooled-buffer counters,
// accumulated by Readers as they flush (Reader.Release) and read back by
// the pipeline's observability layer.
type PoolStats struct {
	// Gets counts buffers taken from the pool.
	Gets uint64
	// Reuses counts record bodies served by an already-large-enough
	// buffer (the zero-allocation steady state).
	Reuses uint64
	// Grows counts record bodies that forced a buffer growth.
	Grows uint64
	// Bytes counts record-body bytes decoded through pooled buffers.
	Bytes uint64
}

var (
	poolGets   atomic.Uint64
	poolReuses atomic.Uint64
	poolGrows  atomic.Uint64
	poolBytes  atomic.Uint64
)

// ReadPoolStats returns the package-wide pooled-buffer counters.
func ReadPoolStats() PoolStats {
	return PoolStats{
		Gets:   poolGets.Load(),
		Reuses: poolReuses.Load(),
		Grows:  poolGrows.Load(),
		Bytes:  poolBytes.Load(),
	}
}

// flushPoolStats folds a Reader's local counters into the package totals
// and zeroes them. Local accumulation keeps atomics off the per-record
// path.
func flushPoolStats(s *PoolStats) {
	if s.Gets != 0 {
		poolGets.Add(s.Gets)
	}
	if s.Reuses != 0 {
		poolReuses.Add(s.Reuses)
	}
	if s.Grows != 0 {
		poolGrows.Add(s.Grows)
	}
	if s.Bytes != 0 {
		poolBytes.Add(s.Bytes)
	}
	*s = PoolStats{}
}

// initialBodyCap covers the vast majority of real MRT records (BGP
// messages are at most 4 KiB; RIB records run larger), so pooled buffers
// rarely grow after warm-up.
const initialBodyCap = 16 << 10

// bodyPool recycles record-body buffers across Readers. Buffers are
// stored as *[]byte to avoid an allocation per Put.
var bodyPool = sync.Pool{
	New: func() any {
		b := make([]byte, initialBodyCap)
		return &b
	},
}
