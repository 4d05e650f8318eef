package livefeed

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// sharedFrame is one published event in its wire forms, each built at
// most once and shared by reference across every subscriber ring, the
// broker's replay window, resume snapshots, and in-flight writev batches.
// It is the unit of the encode-once/broadcast-many fan-out: Publish builds
// one sharedFrame and every delivery of the event — over however many
// subscribers — reuses its bytes instead of re-marshalling.
//
// An event has up to two wire forms: wire, its Event frame (JSON), and
// rec, its Record frame (the MRT record), which only an update event
// carrying its record has. The broker builds each one under its lock the
// first time a subscriber that takes that format is handed the frame, so
// a form nobody reads is never built; the Event frame of an event without
// a record is built at publish, because its journal entry is that JSON.
// A form is written before any reader of it holds the frame and never
// changes afterwards, and readers of one form never touch the other.
//
// Refcount rules (the frame lifecycle, see DESIGN §6.5):
//
//  1. newFrame returns a frame holding one reference, owned by the
//     caller (the publisher).
//  2. Every additional holder takes its own reference via retain BEFORE
//     the frame is handed over: a subscriber ring slot on enqueue, a
//     replay-window slot on insert, a resume snapshot under the broker
//     lock. Transferring an existing reference (ring slot -> consumer on
//     dequeue) does not touch the count.
//  3. release drops one reference. After releasing, the holder must not
//     touch ev or the wire forms again: at zero the frame is reset and
//     pooled, and its buffers will be overwritten by a future publish.
//  4. Releasing below zero panics. A double release is a reuse-corruption
//     bug in the making (a reader would observe another event's bytes
//     behind a stale pointer); failing loudly is what lets the fuzz and
//     chaos tiers catch it.
//
// ev's slices are owned by the publisher (never pooled), so copying ev
// out of a frame and then releasing it is safe.
type sharedFrame struct {
	ev   Event
	wire []byte
	rec  []byte
	refs atomic.Int32

	// ingest is the obs.Nanos stamp taken where the event entered the
	// process (the collector/archive boundary), carried on the frame — not
	// on Event, whose JSON shape is the wire contract — so the server can
	// observe true end-to-end latency at socket-flush time. Zero means
	// unknown (journal-served backfill frames), and such frames are
	// excluded from the e2e histogram.
	ingest int64
	// sampled marks the 1/N events chosen for span tracing at publish
	// time, so downstream stages (socket flush) can attach their spans
	// without re-deriving the sampling decision.
	sampled bool
}

// framePool recycles frames and their wire buffers so a steady-state
// publisher allocates nothing for the frame itself: the buffers grown by
// the largest event seen are reused for every later encode.
var framePool = sync.Pool{New: func() any { return &sharedFrame{} }}

// sliceBuffer is a minimal append-only io.Writer the pooled JSON encoder
// marshals into, so the payload lands in the frame's reusable buffer
// instead of a fresh allocation per event.
type sliceBuffer struct{ b []byte }

func (s *sliceBuffer) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// frameEncoder pairs a buffer with a json.Encoder bound to it.
// Encoder.Encode emits exactly json.Marshal's bytes plus a trailing
// newline — the NDJSON payload shape WriteFrame produces — which is what
// keeps the broadcast path byte-identical to the per-client-encode
// oracle (the differential test's core claim).
type frameEncoder struct {
	buf sliceBuffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	fe := &frameEncoder{}
	fe.enc = json.NewEncoder(&fe.buf)
	return fe
}}

// newFrame takes a pooled frame with the zero event and no wire form, for
// the caller to fill. The returned frame holds one reference owned by the
// caller.
func newFrame() *sharedFrame {
	f := framePool.Get().(*sharedFrame)
	f.refs.Store(1)
	return f
}

// newEventFrame is a frame holding ev with its Event frame built; an event
// JSON cannot carry is an error, and no frame is returned.
func newEventFrame(ev *Event, c *encodeCache) (*sharedFrame, error) {
	f := newFrame()
	f.ev = *ev
	if err := f.encodeJSON(c); err != nil {
		f.release()
		return nil, err
	}
	return f, nil
}

// encodeJSON builds the Event frame: appendEvent writes update and state
// events straight after the reserved header, through the caller's cache,
// and json.Encoder writes everything appendEvent declines. Callers account
// the encode into livefeed_encode_total themselves.
func (f *sharedFrame) encodeJSON(c *encodeCache) error {
	w, ok := appendEvent(append(f.wire[:0], make([]byte, frameHeaderLen)...), &f.ev, c)
	if !ok {
		fe := encPool.Get().(*frameEncoder)
		fe.buf.b = w
		err := fe.enc.Encode(&f.ev)
		w, fe.buf.b = fe.buf.b, nil
		encPool.Put(fe)
		if err != nil {
			f.wire = w[:0]
			return fmt.Errorf("livefeed: encode event %d: %w", f.ev.Seq, err)
		}
	}
	sealFrame(w, FrameEvent)
	f.wire = w
	return nil
}

// encodeRecord builds the Record frame of an event carrying its record.
func (f *sharedFrame) encodeRecord() {
	f.rec = appendRecordFrame(f.rec[:0], f.ev.Seq, f.ev.Collector, f.ev.Raw)
}

// retain takes one additional reference. Only valid while the caller
// already holds a reference (refs > 0).
func (f *sharedFrame) retain() { f.refs.Add(1) }

// release drops one reference; at zero the frame is reset and pooled.
func (f *sharedFrame) release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		f.ev = Event{} // drop slice references so the publisher's memory can be collected
		f.wire, f.rec = f.wire[:0], f.rec[:0]
		f.ingest = 0
		f.sampled = false
		framePool.Put(f)
	case n < 0:
		panic("livefeed: sharedFrame reference count went negative (double release)")
	}
}

// payload returns the NDJSON payload portion of the Event frame
// (trailing newline included) — the exact bytes json.Marshal(&ev) plus
// '\n' would produce, which Journal.Append receives.
func (f *sharedFrame) payload() []byte { return f.wire[frameHeaderLen:] }

// Frame is one delivered event in encoded wire form, the zero-copy
// counterpart of Subscriber.Next. Wire returns the complete frame bytes
// (header + payload) in the subscriber's format, ready to be written to a
// connection. The consumer owns exactly one reference: it must call
// Release once done, and must not touch Wire's bytes afterwards — the
// buffer is recycled for future events.
type Frame struct {
	f   *sharedFrame
	mrt bool // the subscriber takes Record frames
}

// Wire returns the complete encoded frame. Valid until Release.
func (fr Frame) Wire() []byte {
	if fr.mrt && len(fr.f.rec) > 0 {
		return fr.f.rec
	}
	return fr.f.wire
}

// Seq returns the event's sequence number.
func (fr Frame) Seq() uint64 { return fr.f.ev.Seq }

// Release returns the consumer's reference. The Frame must not be used
// afterwards.
func (fr Frame) Release() { fr.f.release() }
