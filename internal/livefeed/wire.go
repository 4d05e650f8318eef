// Package livefeed is the network-facing streaming layer of the
// reproduction: a RIS-Live-style broker that turns collector output into a
// live, subscribable feed. Records from the collector fleet's archives are
// framed in a versioned length-prefixed wire protocol over TCP (NDJSON
// payloads, like RIS Live, or the raw MRT record where the subscriber
// asks for it), and fanned out to any number of concurrent
// subscribers, each with server-side filters and a bounded ring buffer
// whose backpressure policy decides what happens when the subscriber
// cannot keep up (block, drop-oldest, kick-slowest). A dedicated "zombie"
// channel carries real-time detection alerts from zombie.StreamDetector.
//
// Wire protocol (version 1): every frame is
//
//	magic   uint16  0x5A46 ("ZF")
//	version uint8   1
//	type    uint8   frame type (see FrameType)
//	length  uint32  payload length, big endian
//	crc     uint32  CRC-32C (Castagnoli) of the preceding 8 header
//	                bytes followed by the payload, big endian
//	payload []byte  one JSON object terminated by '\n' (NDJSON), except
//	                in a Record frame (below)
//
// After connecting, the server sends a Hello frame; the client answers
// with a Subscribe frame carrying its filter, backpressure policy, resume
// sequence and frame format; the server acknowledges with an Ack frame and
// then streams Event frames until either side closes the connection.
// Errors during the handshake are reported in an Error frame before close.
// Heartbeat frames are interleaved into idle streams so clients can
// distinguish a quiet feed from a stalled connection.
//
// A subscriber that sets Subscribe.Format to "mrt" receives each update
// event that carries its MRT record as a Record frame instead of an Event
// frame, and every other event (alerts, records published without their
// raw bytes) as an Event frame as before. A Record payload is binary:
//
//	seq       uint64  the event's sequence number, big endian
//	collector uvarint length, then that many bytes of collector name
//	record    []byte  the rest: one RFC 6396 record, common header included
//
// The record is the event's Raw field; decoding it gives back every other
// field of the update event. The opt-in keeps both directions compatible:
// a server that predates the field ignores it and sends Event frames, and
// a client that never sets it never sees a Record frame.
//
// The checksum exists because TCP's own checksum is too weak to protect
// detection results: the chaos harness (internal/chaos) demonstrated
// that a single flipped payload byte can survive JSON decoding and
// silently alter a replayed record. A CRC-32C mismatch surfaces as
// ErrBadFrame, which reconnecting clients treat like any other broken
// connection and recover from via resume-from-sequence.
package livefeed

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// ProtocolVersion is the wire protocol version this package speaks.
const ProtocolVersion = 1

// frameMagic marks every frame ("ZF" big endian).
const frameMagic uint16 = 0x5A46

// MaxFramePayload bounds the payload length accepted by ReadFrame,
// protecting against corrupted length fields.
const MaxFramePayload = 1 << 22

// FrameType identifies a frame's payload.
type FrameType uint8

// Frame types of protocol version 1.
const (
	FrameHello     FrameType = 1 // server -> client, on connect
	FrameSubscribe FrameType = 2 // client -> server, the only client frame
	FrameAck       FrameType = 3 // server -> client, subscription accepted
	FrameError     FrameType = 4 // server -> client, handshake failure
	FrameEvent     FrameType = 5 // server -> client, one feed event
	FrameHeartbeat FrameType = 6 // server -> client, keepalive on idle streams
	FrameRecord    FrameType = 7 // server -> client, one update event as its MRT record
)

// Frame formats a Subscribe frame can ask for. The empty format is JSON.
const (
	FormatJSON = "json" // every event as an Event frame
	FormatMRT  = "mrt"  // update events carrying a record as Record frames, the rest as Event frames
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameSubscribe:
		return "subscribe"
	case FrameAck:
		return "ack"
	case FrameError:
		return "error"
	case FrameEvent:
		return "event"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameRecord:
		return "record"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// valid reports whether t is a frame type of this protocol version.
// ReadFrame rejects unknown types before touching the payload: on a
// corrupted stream the type byte is as suspect as the length field.
func (t FrameType) valid() bool {
	return t >= FrameHello && t <= FrameRecord
}

// Sentinel errors of the feed layer.
var (
	ErrBadFrame      = fmt.Errorf("livefeed: malformed frame")
	ErrFrameTooBig   = fmt.Errorf("livefeed: frame payload exceeds limit")
	ErrBadVersion    = fmt.Errorf("livefeed: unsupported protocol version")
	ErrClosed        = fmt.Errorf("livefeed: subscriber closed")
	ErrKicked        = fmt.Errorf("livefeed: subscriber kicked (too slow)")
	ErrBrokerClosed  = fmt.Errorf("livefeed: broker closed")
	ErrHandshake     = fmt.Errorf("livefeed: handshake failed")
	ErrServerRefused = fmt.Errorf("livefeed: server refused subscription")
	ErrIdleTimeout   = fmt.Errorf("livefeed: no frame within the idle timeout")
	ErrJournal       = fmt.Errorf("livefeed: journal read failed")
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64
// and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Hello is the server's first frame.
type Hello struct {
	Version int    `json:"version"`
	Server  string `json:"server"`
	// Head is the sequence number of the most recently published event
	// (0 if nothing has been published yet).
	Head uint64 `json:"head"`
}

// Subscribe is the client's subscription request.
type Subscribe struct {
	Filter Filter `json:"filter"`
	// Policy selects the server-side backpressure behavior for this
	// subscriber; empty means drop-oldest.
	Policy string `json:"policy,omitempty"`
	// ResumeFrom asks the server to replay retained events with sequence
	// numbers strictly greater than this value. 0 means "from now".
	ResumeFrom uint64 `json:"resume_from,omitempty"`
	// FromStart (with ResumeFrom 0) asks for replay from the oldest
	// retained event instead of "from now", so a consumer that never
	// received anything can still recover events published before its
	// first stable connection. Events neither the replay window nor the
	// server's journal still holds are reported in Ack.Lost.
	FromStart bool `json:"from_start,omitempty"`
	// Format selects how update events carrying their MRT record are
	// framed: FormatMRT as Record frames, FormatJSON (or empty) as Event
	// frames. Any other value is refused.
	Format string `json:"format,omitempty"`
}

// Ack confirms a subscription.
type Ack struct {
	// Head is the broker head the subscription was taken at: a from-now
	// subscription is delivered only events above it.
	Head uint64 `json:"head"`
	// Lost is how many events between ResumeFrom and the server's oldest
	// retained event were no longer available for replay.
	Lost uint64 `json:"lost,omitempty"`
}

// ErrorFrame reports a handshake failure.
type ErrorFrame struct {
	Message string `json:"message"`
}

// Heartbeat is the payload of a FrameHeartbeat: proof of liveness on an
// idle stream, carrying the broker head so clients can see how far
// behind a filtered subscription is.
type Heartbeat struct {
	Head uint64 `json:"head"`
}

// frameHeaderLen is the fixed prefix of every frame: magic(2) +
// version(1) + type(1) + length(4) + crc(4).
const frameHeaderLen = 12

// WriteFrame encodes v as one NDJSON payload and writes a full frame.
func WriteFrame(w io.Writer, t FrameType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("livefeed: encode %s frame: %w", t, err)
	}
	_, err = w.Write(appendFrame(nil, t, append(payload, '\n')))
	return err
}

// appendFrame appends one complete frame for an already-encoded NDJSON
// payload (trailing newline included). Frames are canonical: these bytes
// are fully determined by (t, payload), which FuzzFrame relies on.
func appendFrame(dst []byte, t FrameType, payload []byte) []byte {
	// The header is built in place inside dst (not in a local array that
	// escape analysis would heap-allocate per call): the encode-once hot
	// path reuses dst's capacity, keeping appendFrame allocation-free.
	off := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = append(dst, payload...)
	sealFrame(dst[off:], t)
	return dst
}

// sealFrame fills in the reserved header of frame, whose payload already
// follows it.
func sealFrame(frame []byte, t FrameType) {
	hdr := frame[:frameHeaderLen]
	binary.BigEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = ProtocolVersion
	hdr[3] = uint8(t)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(frame)-frameHeaderLen))
	binary.BigEndian.PutUint32(hdr[8:], frameCRC(hdr[:8], frame[frameHeaderLen:]))
}

// ReadFrame reads one frame and returns its type and raw payload: NDJSON
// including the trailing newline, or a Record frame's binary body. Every
// header field is validated
// before the payload is read, and the payload checksum afterwards, so a
// corrupted stream surfaces as ErrBadFrame/ErrBadVersion/ErrFrameTooBig
// rather than as a hang, an over-allocation, or silently altered data.
// The payload is freshly allocated and owned by the caller.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [frameHeaderLen]byte
	return readFrame(r, &hdr, nil)
}

// readFrame is ReadFrame reading into caller storage: the header into
// hdr, the payload into buf when it fits. A caller done with each payload
// before the next read (Conn.Next) reuses both for a whole connection.
func readFrame(r io.Reader, hdr *[frameHeaderLen]byte, buf []byte) (FrameType, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint16(hdr[0:]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if hdr[2] != ProtocolVersion {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	t := FrameType(hdr[3])
	if !t.valid() {
		return 0, nil, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, uint8(t))
	}
	length := binary.BigEndian.Uint32(hdr[4:])
	if length > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, length)
	}
	if length == 0 {
		return 0, nil, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if uint32(cap(buf)) < length {
		buf = make([]byte, length)
	}
	payload := buf[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	if t != FrameRecord && payload[length-1] != '\n' {
		return 0, nil, fmt.Errorf("%w: payload not newline-terminated", ErrBadFrame)
	}
	if got, want := frameCRC(hdr[:8], payload), binary.BigEndian.Uint32(hdr[8:]); got != want {
		return 0, nil, fmt.Errorf("%w: frame checksum mismatch", ErrBadFrame)
	}
	return t, payload, nil
}

// frameCRC covers the header prefix as well as the payload: a flipped
// type byte would otherwise decode silently as a valid frame of another
// type (magic, version, and length flips are caught by field checks).
func frameCRC(hdrPrefix, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdrPrefix, crcTable), crcTable, payload)
}

// readFrameInto reads one frame, requires type want, and decodes it.
func readFrameInto(r io.Reader, want FrameType, v any) error {
	t, payload, err := ReadFrame(r)
	if err != nil {
		return err
	}
	if t == FrameError {
		var ef ErrorFrame
		if json.Unmarshal(payload, &ef) == nil && ef.Message != "" {
			return fmt.Errorf("%w: %s", ErrServerRefused, ef.Message)
		}
		return ErrServerRefused
	}
	if t != want {
		return fmt.Errorf("%w: got %s frame, want %s", ErrBadFrame, t, want)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: %s payload: %v", ErrBadFrame, want, err)
	}
	return nil
}
