package livefeed

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// sharedFrame is one published event encoded exactly once into its
// complete wire frame (header + NDJSON payload), shared by reference
// across every subscriber ring, the broker's replay window, resume
// snapshots, and in-flight writev batches. It is the unit of the
// encode-once/broadcast-many fan-out: Publish builds one sharedFrame and
// every delivery of the event — over however many subscribers — reuses
// its bytes instead of re-marshalling.
//
// Refcount rules (the frame lifecycle, see DESIGN §6.5):
//
//  1. newEventFrame returns a frame holding one reference, owned by the
//     caller (the publisher).
//  2. Every additional holder takes its own reference via retain BEFORE
//     the frame is handed over: a subscriber ring slot on enqueue, a
//     replay-window slot on insert, a resume snapshot under the broker
//     lock. Transferring an existing reference (ring slot -> consumer on
//     dequeue) does not touch the count.
//  3. release drops one reference. After releasing, the holder must not
//     touch ev or wire again: at zero the frame is reset and pooled, and
//     its wire buffer will be overwritten by a future publish.
//  4. Releasing below zero panics. A double release is a reuse-corruption
//     bug in the making (a reader would observe another event's bytes
//     behind a stale pointer); failing loudly is what lets the fuzz and
//     chaos tiers catch it.
//
// wire is immutable while refs > 0; ev's slices are owned by the
// publisher (never pooled), so copying ev out of a frame and then
// releasing it is safe.
type sharedFrame struct {
	ev   Event
	wire []byte
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
// publisher allocates nothing for the frame itself: the buffer grown by
// the largest event seen is reused for every later encode.
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

// newEventFrame encodes ev once into a pooled frame: appendEvent writes
// update and state events straight after the reserved header, through the
// caller's cache, and json.Encoder writes everything appendEvent declines.
// The returned frame holds one reference owned by the caller. Callers
// account the encode into livefeed_encode_total themselves (broker hot
// path and backfill both come through here).
func newEventFrame(ev *Event, c *encodeCache) (*sharedFrame, error) {
	f := framePool.Get().(*sharedFrame)
	w, ok := appendEvent(append(f.wire[:0], make([]byte, frameHeaderLen)...), ev, c)
	if !ok {
		evc := *ev // keeps ev off the heap: only this branch reflects
		fe := encPool.Get().(*frameEncoder)
		fe.buf.b = w
		err := fe.enc.Encode(&evc)
		w, fe.buf.b = fe.buf.b, nil
		encPool.Put(fe)
		if err != nil {
			f.wire = w[:0]
			framePool.Put(f)
			return nil, fmt.Errorf("livefeed: encode event %d: %w", ev.Seq, err)
		}
	}
	sealFrame(w, FrameEvent)
	f.wire = w
	f.ev = *ev
	f.refs.Store(1)
	return f, nil
}

// retain takes one additional reference. Only valid while the caller
// already holds a reference (refs > 0).
func (f *sharedFrame) retain() { f.refs.Add(1) }

// release drops one reference; at zero the frame is reset and pooled.
func (f *sharedFrame) release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		f.ev = Event{} // drop slice references so the publisher's memory can be collected
		f.wire = f.wire[:0]
		f.ingest = 0
		f.sampled = false
		framePool.Put(f)
	case n < 0:
		panic("livefeed: sharedFrame reference count went negative (double release)")
	}
}

// payload returns the NDJSON payload portion of the wire frame
// (trailing newline included) — the exact bytes json.Marshal(&ev) plus
// '\n' would produce, which Journal.Append receives.
func (f *sharedFrame) payload() []byte { return f.wire[frameHeaderLen:] }

// Frame is one delivered event in encoded wire form, the zero-copy
// counterpart of Subscriber.Next. Wire returns the complete frame bytes
// (header + NDJSON payload) ready to be written to a connection. The
// consumer owns exactly one reference: it must call Release once done,
// and must not touch Wire's bytes afterwards — the buffer is recycled for
// future events.
type Frame struct{ f *sharedFrame }

// Wire returns the complete encoded frame. Valid until Release.
func (fr Frame) Wire() []byte { return fr.f.wire }

// Seq returns the event's sequence number.
func (fr Frame) Seq() uint64 { return fr.f.ev.Seq }

// Release returns the consumer's reference. The Frame must not be used
// afterwards.
func (fr Frame) Release() { fr.f.release() }
