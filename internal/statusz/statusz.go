// Package statusz assembles and serves a daemon's single-page
// introspection snapshot: head sequence, per-stage latency summaries,
// per-subscriber session telemetry, store watermarks, and Go runtime
// health in one JSON document. The /statusz endpoint answers the
// question /metrics cannot — "what is this daemon doing right now" —
// without a scrape pipeline in between, and the zombietop dashboard is a
// terminal renderer over the same document.
package statusz

import (
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"zombiescope/internal/livefeed"
	"zombiescope/internal/obs"
)

// Status is one point-in-time snapshot of a zombied process. Field order
// here is presentation order in the HTML view; the JSON shape is the
// contract the zombietop dashboard and the CI smoke golden pin.
type Status struct {
	Server        string  `json:"server"`
	GoVersion     string  `json:"go_version"`
	NumCPU        int     `json:"num_cpu"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Ready         bool    `json:"ready"`

	HeadSeq       uint64 `json:"head_seq"`
	PendingChecks int    `json:"pending_checks"`
	Subscribers   int    `json:"subscribers"`

	// Counters and Stages are the daemon's registries as obs.Values reads
	// them: every counter series, and a summary of every histogram
	// series, keyed by the series name /metrics prints
	// (livefeed_records_in_total, pipeline_stage_seconds{stage="decode"}).
	Counters map[string]int64                `json:"counters"`
	Stages   map[string]obs.HistogramSummary `json:"stages"`

	Sessions []livefeed.SessionInfo `json:"sessions"`

	Store *StoreStatus `json:"store,omitempty"`

	Runtime obs.RuntimeStats `json:"runtime"`

	// UnixNanos is the wall-clock stamp of this snapshot; consumers
	// derive rates from counter deltas over stamp deltas.
	UnixNanos int64 `json:"unix_nanos"`
}

// StoreStatus is the durable event store's corner of the page.
type StoreStatus struct {
	Dir      string `json:"dir"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
}

// Handler serves the status built by build, as indented JSON by default
// and as a human-readable HTML page when the client asks for text/html
// or ?format=html. The UnixNanos stamp is filled in here so every
// builder gets rate-ready snapshots for free.
func Handler(build func() Status) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := build()
		st.UnixNanos = time.Now().UnixNano()
		if r.URL.Query().Get("format") == "html" ||
			strings.Contains(r.Header.Get("Accept"), "text/html") {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			htmlTmpl.Execute(w, &st)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(&st)
	})
}

var htmlTmpl = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"secs": fmtSeconds,
}).Parse(`<!doctype html>
<html><head><title>{{.Server}} statusz</title><style>
body{font-family:monospace;margin:2em}table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #999;padding:2px 8px;text-align:right}th{background:#eee}
td:first-child,th:first-child{text-align:left}
</style></head><body>
<h1>{{.Server}}</h1>
<p>{{.GoVersion}}, {{.NumCPU}} CPU, up {{printf "%.0f" .UptimeSeconds}}s,
ready={{.Ready}}, head={{.HeadSeq}}, pending_checks={{.PendingChecks}},
subscribers={{.Subscribers}}, goroutines={{.Runtime.Goroutines}}</p>
<h2>Stages</h2>
<table><tr><th>series</th><th>count</th><th>p50</th><th>p99</th><th>p99.9</th></tr>
{{range $name, $s := .Stages}}<tr><td>{{$name}}</td><td>{{$s.Count}}</td><td>{{secs $s.P50}}</td><td>{{secs $s.P99}}</td><td>{{secs $s.P999}}</td></tr>
{{end}}</table>
<h2>Sessions</h2>
<table><tr><th>id</th><th>policy</th><th>format</th><th>lag</th><th>queue</th><th>delivered</th><th>bytes</th><th>drops</th></tr>
{{range .Sessions}}<tr><td>{{.ID}}</td><td>{{.Policy}}</td><td>{{.Format}}</td><td>{{.Lag}}</td><td>{{.Queue}}/{{.Cap}}</td><td>{{.Delivered}}</td><td>{{.Bytes}}</td><td>{{.Drops}}</td></tr>
{{end}}</table>
{{with .Store}}<h2>Store</h2>
<p>{{.Dir}}: seqs {{.FirstSeq}}..{{.LastSeq}}, {{.Segments}} segments, {{.Bytes}} bytes</p>{{end}}
</body></html>
`))

// Render writes a terminal view of cur to w: one header block, a stage
// table, and the top sessions by lag. prev, when non-nil, supplies the
// baseline for rate columns (events/s, bytes/s) from counter deltas over
// the snapshots' UnixNanos distance; a counter that went backwards (the
// daemon restarted between polls) has no rate and renders "-". top bounds
// the session rows (0 = all). This is zombietop's frame renderer, kept
// here so the dashboard binary stays a fetch-decode-clear-render loop.
func Render(w io.Writer, prev, cur *Status, top int) {
	dt := 0.0
	if prev != nil && cur.UnixNanos > prev.UnixNanos {
		dt = float64(cur.UnixNanos-prev.UnixNanos) / 1e9
	}
	rate := func(key string) string {
		if dt <= 0 {
			return "-"
		}
		d := cur.Counters[key] - prev.Counters[key]
		if d < 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f/s", float64(d)/dt)
	}
	fmt.Fprintf(w, "%s  up %.0fs  head %d  subs %d  pending %d  goroutines %d\n",
		cur.Server, cur.UptimeSeconds, cur.HeadSeq, cur.Subscribers, cur.PendingChecks, cur.Runtime.Goroutines)
	fmt.Fprintf(w, "in %s  out %s  bytes %s  drops %s  kicks %s  alerts %s  heap %dM\n",
		rate("livefeed_records_in_total"), rate("livefeed_events_out_total"),
		rate("livefeed_bytes_written_total"), rate("livefeed_drops_drop_oldest_total"),
		rate("livefeed_kicks_total"), rate("livefeed_alerts_total"),
		cur.Runtime.HeapLiveBytes>>20)
	if cur.Store != nil {
		fmt.Fprintf(w, "store %d..%d  %d segs  %dM\n",
			cur.Store.FirstSeq, cur.Store.LastSeq, cur.Store.Segments, cur.Store.Bytes>>20)
	}

	names := make([]string, 0, len(cur.Stages))
	width := len("STAGE")
	for name := range cur.Stages {
		names = append(names, name)
		width = max(width, len(name))
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-*s %10s %12s %12s %12s\n", width, "STAGE", "COUNT", "P50", "P99", "P99.9")
	for _, name := range names {
		s := cur.Stages[name]
		fmt.Fprintf(w, "%-*s %10d %12s %12s %12s\n",
			width, name, s.Count, fmtSeconds(s.P50), fmtSeconds(s.P99), fmtSeconds(s.P999))
	}

	sessions := append([]livefeed.SessionInfo(nil), cur.Sessions...)
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].Lag > sessions[j].Lag })
	if top > 0 && len(sessions) > top {
		sessions = sessions[:top]
	}
	fmt.Fprintf(w, "\n%-6s %-13s %-6s %8s %9s %10s %10s %7s %8s\n",
		"SESS", "POLICY", "FORMAT", "LAG", "QUEUE", "DELIVERED", "BYTES", "DROPS", "STALL")
	for _, s := range sessions {
		fmt.Fprintf(w, "%-6d %-13s %-6s %8d %4d/%-4d %10d %10d %7d %7.1fs\n",
			s.ID, s.Policy, s.Format, s.Lag, s.Queue, s.Cap, s.Delivered, s.Bytes, s.Drops, s.StallSeconds)
	}
}

// fmtSeconds renders a latency with a unit that keeps 3 significant
// digits readable from nanoseconds to seconds.
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
