package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"zombiescope/internal/obs"
)

// spanLog holds the benchmark's own spans: one around every call into a
// layer's public functions during the staged passes. The spans also go to
// a private obs.Tracer (never installed process-wide, so the program's own
// instrumentation stays off) which writes the Chrome trace at exit.
type spanLog struct {
	tracer *obs.Tracer
	recs   []spanRec
}

type spanRec struct {
	name       string
	pass       int
	parent     int // index into recs, -1 for a root
	start, end time.Time
}

// span is one open span of a spanLog.
type span struct {
	log *spanLog
	idx int
	o   *obs.Span
}

func newSpanLog() *spanLog { return &spanLog{tracer: obs.NewTracer()} }

// root opens a root span; pass identifies the staged pass every span of
// its tree belongs to.
func (l *spanLog) root(name string, pass int) *span {
	o := l.tracer.Start(name)
	o.SetArg("pass", pass)
	l.recs = append(l.recs, spanRec{name: name, pass: pass, parent: -1, start: time.Now()})
	return &span{log: l, idx: len(l.recs) - 1, o: o}
}

func (s *span) child(name string) *span {
	l := s.log
	o := s.o.Start(name)
	o.SetArg("pass", l.recs[s.idx].pass)
	l.recs = append(l.recs, spanRec{name: name, pass: l.recs[s.idx].pass, parent: s.idx, start: time.Now()})
	return &span{log: l, idx: len(l.recs) - 1, o: o}
}

func (s *span) end() time.Duration {
	r := &s.log.recs[s.idx]
	r.end = time.Now()
	s.o.End()
	return r.end.Sub(r.start)
}

// time runs fn under a child span and returns how long it took. On a nil
// span — an untraced pass running the same code — it only runs and times.
func (s *span) time(name string, fn func() error) (time.Duration, error) {
	if s == nil {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	c := s.child(name)
	err := fn()
	return c.end(), err
}

// step is one named call of a pass.
type step struct {
	name string
	fn   func() error
}

// run times the steps in order, each under its own child span, and stops
// at the first error.
func (s *span) run(steps []step) error {
	for _, st := range steps {
		if _, err := s.time(st.name, st.fn); err != nil {
			return err
		}
	}
	return nil
}

// selfMillis returns every finished span's self time — its duration minus
// its children's — in milliseconds, indexed like recs.
func (l *spanLog) selfMillis() []float64 {
	self := make([]float64, len(l.recs))
	for i, r := range l.recs {
		self[i] += float64(r.end.Sub(r.start)) / 1e6
		if r.parent >= 0 {
			self[r.parent] -= float64(r.end.Sub(r.start)) / 1e6
		}
	}
	return self
}

// write exports the spans as Chrome trace-event JSON.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTable accumulates the per-layer metrics of one run: timings as
// samples reported by their median, counts and ratios as single values.
type layerTable struct {
	samples map[string][]float64
}

func newLayerTable() *layerTable {
	t := &layerTable{samples: make(map[string][]float64, len(perLayer))}
	for _, m := range perLayer {
		t.samples[m.Name] = nil
	}
	return t
}

// add records one sample of a per-layer metric. An unknown name is a typo
// in the benchmark itself.
func (t *layerTable) add(name string, v float64) {
	if _, ok := t.samples[name]; !ok {
		panic(fmt.Sprintf("bench: %q is not a per-layer metric", name))
	}
	t.samples[name] = append(t.samples[name], v)
}

// set replaces whatever was recorded under name by one value.
func (t *layerTable) set(name string, v float64) {
	t.samples[name] = nil
	t.add(name, v)
}

func (t *layerTable) value(name string) float64 { return median(t.samples[name]) }

// addSpans folds the span log into the table: a span named "x.y" feeds
// the metric "x.y_ms" with its self time, one sample per staged pass.
func (t *layerTable) addSpans(l *spanLog) {
	self := l.selfMillis()
	for i, r := range l.recs {
		if _, ok := t.samples[r.name+"_ms"]; ok {
			t.add(r.name+"_ms", self[i])
		}
	}
}

// coverage compares the staged passes with the untraced pass median: how
// much of the pass the on-path layer spans (children of the "pass" roots)
// account for, and how much longer a staged pass ran than an untraced one.
// Without an untraced pass time the staged pass itself is the base.
func (l *spanLog) coverage(passP50Millis float64) (coverPct, overheadPct float64) {
	self := l.selfMillis()
	var covered, total []float64
	for i, r := range l.recs {
		if r.parent != -1 || r.name != "pass" {
			continue
		}
		dur := float64(r.end.Sub(r.start)) / 1e6
		total = append(total, dur)
		covered = append(covered, dur-self[i])
	}
	if passP50Millis <= 0 {
		passP50Millis = median(total)
	}
	if passP50Millis <= 0 {
		return 0, 0
	}
	return 100 * median(covered) / passP50Millis, 100 * (median(total) - passP50Millis) / passP50Millis
}
