package statusz

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"zombiescope/internal/livefeed"
	"zombiescope/internal/obs"
)

func sampleStatus() Status {
	return Status{
		Server:        "zombied/1",
		GoVersion:     "go1.22",
		NumCPU:        4,
		UptimeSeconds: 12.5,
		Ready:         true,
		HeadSeq:       42,
		Subscribers:   2,
		Counters: map[string]int64{
			"livefeed_records_in_total": 100, "livefeed_events_out_total": 90, "livefeed_bytes_written_total": 4096,
		},
		Stages: map[string]obs.HistogramSummary{
			"livefeed_publish_seconds":               {Count: 100, Sum: 0.01, P50: 5e-5, P99: 2e-4, P999: 1e-3},
			`pipeline_stage_seconds{stage="decode"}`: {Count: 3, Sum: 0.3, P50: 0.1, P99: 0.1, P999: 0.1},
		},
		Sessions: []livefeed.SessionInfo{
			{ID: 1, Policy: "drop-oldest", Lag: 3, Queue: 3, Cap: 64, Delivered: 87},
			{ID: 2, Policy: "block", Lag: 10, Queue: 5, Cap: 64, Delivered: 80},
		},
		Store: &StoreStatus{Dir: "/tmp/store", FirstSeq: 1, LastSeq: 42, Segments: 2, Bytes: 1 << 20},
	}
}

func TestHandlerJSON(t *testing.T) {
	h := Handler(sampleStatus)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("response is not valid Status JSON: %v", err)
	}
	if st.HeadSeq != 42 || !st.Ready || len(st.Sessions) != 2 {
		t.Errorf("round-trip lost fields: %+v", st)
	}
	if st.UnixNanos == 0 {
		t.Error("handler did not stamp UnixNanos")
	}
}

func TestHandlerHTML(t *testing.T) {
	h := Handler(sampleStatus)
	rec := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/statusz", nil)
	r.Header.Set("Accept", "text/html")
	h.ServeHTTP(rec, r)
	body := rec.Body.String()
	if !strings.Contains(rec.Header().Get("Content-Type"), "text/html") {
		t.Fatalf("Content-Type = %q", rec.Header().Get("Content-Type"))
	}
	for _, want := range []string{"zombied/1", "drop-oldest", "livefeed_publish_seconds", "/tmp/store"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML page missing %q", want)
		}
	}
	// ?format=html works without an Accept header (curl usage).
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz?format=html", nil))
	if !strings.Contains(rec.Header().Get("Content-Type"), "text/html") {
		t.Errorf("format=html ignored")
	}
}

func TestRender(t *testing.T) {
	cur := sampleStatus()
	cur.UnixNanos = 2e9
	prev := sampleStatus()
	prev.UnixNanos = 1e9
	prev.Counters = map[string]int64{
		"livefeed_records_in_total": 50, "livefeed_events_out_total": 40, "livefeed_bytes_written_total": 0,
	}
	var sb strings.Builder
	Render(&sb, &prev, &cur, 0)
	out := sb.String()
	// Rates from the counter deltas over the 1s stamp distance.
	if !strings.Contains(out, "in 50/s") || !strings.Contains(out, "out 50/s") {
		t.Errorf("rates wrong:\n%s", out)
	}
	if !strings.Contains(out, "bytes 4096/s") {
		t.Errorf("byte rate missing:\n%s", out)
	}
	// Sessions sorted by lag descending: session 2 (lag 10) first.
	i1, i2 := strings.Index(out, "\n2      block"), strings.Index(out, "\n1      drop-oldest")
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Errorf("sessions not sorted by lag:\n%s", out)
	}
	if !strings.Contains(out, "store 1..42") {
		t.Errorf("store line missing:\n%s", out)
	}
	// The stage column fits the longest series name, so every row of the
	// table lines up under the header.
	for _, name := range []string{"livefeed_publish_seconds  ", `pipeline_stage_seconds{stage="decode"} `} {
		if !strings.Contains(out, name) {
			t.Errorf("stage row %q missing or misaligned:\n%s", name, out)
		}
	}

	// A counter that went backwards (the daemon restarted between polls)
	// has no rate: it renders "-", never a negative number.
	restarted := sampleStatus()
	restarted.UnixNanos = 3e9
	restarted.Counters["livefeed_records_in_total"] = 10
	sb.Reset()
	Render(&sb, &cur, &restarted, 0)
	out = sb.String()
	if !strings.Contains(out, "in -  out 0/s") || strings.Contains(out, "-90/s") {
		t.Errorf("backwards counter should render '-':\n%s", out)
	}

	// Without a baseline, rates render as "-"; top bounds the rows.
	sb.Reset()
	Render(&sb, nil, &cur, 1)
	out = sb.String()
	if !strings.Contains(out, "in -") {
		t.Errorf("nil-baseline rates should be '-':\n%s", out)
	}
	if strings.Contains(out, "drop-oldest") {
		t.Errorf("top=1 should keep only the laggiest session:\n%s", out)
	}
}
