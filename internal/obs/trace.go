package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects completed spans for later export. Tracing is opt-in:
// when no tracer is installed (the default), StartSpan returns a nil
// *Span whose methods are all no-ops, so instrumentation costs one atomic
// pointer load on the disabled path.
type Tracer struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one finished span, ready for export.
type spanRecord struct {
	name   string
	id     uint64
	parent uint64 // 0 = root
	track  uint64 // root span id; Chrome trace tid, so a root's tree shares a lane
	start  time.Time
	end    time.Time
	args   map[string]any
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// tracer is the installed process-wide tracer (nil = tracing disabled).
var tracer atomic.Pointer[Tracer]

// SetTracer installs (or, with nil, removes) the process-wide tracer.
func SetTracer(t *Tracer) { tracer.Store(t) }

// Span is one in-flight operation. The nil *Span is valid and inert, so
// callers never need to check whether tracing is enabled.
type Span struct {
	t      *Tracer
	name   string
	id     uint64
	parent uint64
	track  uint64
	start  time.Time

	mu    sync.Mutex
	args  map[string]any
	ended bool
}

// StartSpan begins a root span on the installed tracer. It returns nil
// (inert) when tracing is disabled.
func StartSpan(name string) *Span {
	t := tracer.Load()
	if t == nil {
		return nil
	}
	return t.Start(name)
}

// Start begins a root span on this tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	return &Span{t: t, name: name, id: id, track: id, start: time.Now()}
}

// Start begins a child span. Children may be started and ended from
// different goroutines than the parent; each span's End is its own.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	id := s.t.nextID.Add(1)
	return &Span{t: s.t, name: name, id: id, parent: s.id, track: s.track, start: time.Now()}
}

// SetArg attaches a key/value annotation exported in the trace event's
// args object.
func (s *Span) SetArg(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.args == nil {
		s.args = make(map[string]any)
	}
	s.args[key] = value
	s.mu.Unlock()
}

// End completes the span and records it on the tracer. Repeated calls
// after the first are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	args := s.args
	s.mu.Unlock()
	rec := spanRecord{
		name:   s.name,
		id:     s.id,
		parent: s.parent,
		track:  s.track,
		start:  s.start,
		end:    time.Now(),
		args:   args,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// Len returns how many spans have completed.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// chromeEvent is one Chrome trace-event ("X" = complete event). Load the
// output at chrome://tracing or https://ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`  // microseconds
	Dur  int64          `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the completed spans as a Chrome trace-event
// JSON array. Timestamps are relative to the earliest span so the viewer
// opens at the start of the run.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte("[]\n"))
		return err
	}
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	var epoch time.Time
	for _, sp := range spans {
		if epoch.IsZero() || sp.start.Before(epoch) {
			epoch = sp.start
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		args := sp.args
		if sp.parent != 0 {
			if args == nil {
				args = make(map[string]any, 1)
			}
			args["parent_span"] = sp.parent
		}
		events = append(events, chromeEvent{
			Name: sp.name,
			Ph:   "X",
			Ts:   sp.start.Sub(epoch).Microseconds(),
			Dur:  sp.end.Sub(sp.start).Microseconds(),
			Pid:  1,
			Tid:  sp.track,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
