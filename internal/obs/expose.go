package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format version served by
// MultiHandler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// walk is the one read of a registry: it runs the scrape hooks, then calls
// fn once per family in name order with the family's children in
// label-value order, so every reader sees a deterministic sequence.
// WritePrometheus and Values are both thin renderings of it.
func (r *Registry) walk(fn func(f *family, children []*child)) {
	r.runScrapeHooks()
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.RUnlock()
	for _, f := range fams {
		fn(f, f.sortedChildren())
	}
}

// sortedChildren returns the family's children sorted by joined label
// values.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	return children
}

// WritePrometheus renders every family of the registry in the Prometheus
// text exposition format, families sorted by name and children sorted by
// label values, so the output is deterministic for a given state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.walk(func(f *family, children []*child) { f.write(bw, children) })
	return bw.Flush()
}

// Values is the in-process read of the registry: every counter series'
// value and every histogram series' summary, keyed by the series name the
// exposition prints (`livefeed_records_in_total`,
// `pipeline_stage_seconds{stage="decode"}`; a histogram's key carries no
// _sum/_count suffix). Gauges are left out: they are levels, not the
// totals and distributions a status page or a test reconciles. Values
// runs the scrape hooks, exactly as a scrape would.
func (r *Registry) Values() (counters map[string]int64, histograms map[string]HistogramSummary) {
	counters = make(map[string]int64)
	histograms = make(map[string]HistogramSummary)
	var sb strings.Builder
	r.walk(func(f *family, children []*child) {
		for _, c := range children {
			sb.Reset()
			writeSeries(&sb, f.name, f.labels, c.values, "", "")
			switch m := c.metric.(type) {
			case *Counter:
				counters[sb.String()] = m.Value()
			case *Histogram:
				histograms[sb.String()] = m.Summary()
			}
		}
	})
	return counters, histograms
}

// write renders one family: HELP and TYPE header plus one line per child
// sample (histograms expand to buckets, sum, and count).
func (f *family) write(w *bufio.Writer, children []*child) {
	if f.help != "" {
		w.WriteString("# HELP ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(escapeHelp(f.help))
		w.WriteByte('\n')
	}
	w.WriteString("# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.kind.String())
	w.WriteByte('\n')

	for _, ch := range children {
		// Label values come from the child itself, never by splitting the
		// joined key: a value containing the separator byte must not be
		// able to shift its neighbours (see child).
		values := ch.values
		switch c := ch.metric.(type) {
		case *Counter:
			writeSample(w, f.name, f.labels, values, "", "", strconv.FormatInt(c.Value(), 10))
		case *Gauge:
			writeSample(w, f.name, f.labels, values, "", "", formatFloat(c.Value()))
		case *Histogram:
			bounds, cum := c.Buckets()
			for bi, bound := range bounds {
				writeSample(w, f.name+"_bucket", f.labels, values,
					"le", formatFloat(bound), strconv.FormatUint(cum[bi], 10))
			}
			count := c.Count()
			writeSample(w, f.name+"_bucket", f.labels, values, "le", "+Inf", strconv.FormatUint(count, 10))
			writeSample(w, f.name+"_sum", f.labels, values, "", "", formatFloat(c.Sum()))
			writeSample(w, f.name+"_count", f.labels, values, "", "", strconv.FormatUint(count, 10))
		}
	}
}

// writeSample renders one exposition line: the series name, then the
// rendered value.
func writeSample(w *bufio.Writer, name string, labels, values []string, extraName, extraValue, rendered string) {
	writeSeries(w, name, labels, values, extraName, extraValue)
	w.WriteByte(' ')
	w.WriteString(rendered)
	w.WriteByte('\n')
}

// seriesWriter is what writeSeries renders into: the exposition's
// bufio.Writer, or the strings.Builder behind a Values key.
type seriesWriter interface {
	io.StringWriter
	io.ByteWriter
}

// writeSeries renders a series name with its label set. extraName and
// extraValue append a trailing label (the histogram `le` bound) after
// the family labels.
func writeSeries(w seriesWriter, name string, labels, values []string, extraName, extraValue string) {
	w.WriteString(name)
	if len(labels) > 0 || extraName != "" {
		w.WriteByte('{')
		for i, ln := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(ln)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				w.WriteByte(',')
			}
			w.WriteString(extraName)
			w.WriteString(`="`)
			w.WriteString(extraValue)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, with the special values spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// MultiHandler serves the union of several registries on one endpoint —
// the zombied pattern, where the broker, the shared pipeline engine, and
// the collector fleet each own a registry but scrape as one target. Nil
// registries are skipped; duplicate family names across registries are the
// caller's responsibility.
func MultiHandler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		for _, r := range regs {
			if r == nil {
				continue
			}
			r.WritePrometheus(w)
		}
	})
}
