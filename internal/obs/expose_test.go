package obs

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zombiescope/internal/obs/obstest"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with every metric kind in a
// deterministic state.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.").Add(1234)
	cv := r.CounterVec("app_errors_total", "Errors by class.", "class")
	cv.With("decode").Add(3)
	cv.With("io").Add(1)
	r.Gauge("app_temperature_celsius", "Current temperature.").Set(36.6)
	gv := r.GaugeVec(`app_peer_rate`, `Per-peer rate with "quoted" and back\slash labels.`, "collector", "peer_as")
	gv.With(`rrc21`, "16347").Set(0.428)
	gv.With(`rrc"quote`, `back\slash`).Set(1)
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 2} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition diverges from golden file (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestHandlerContentType(t *testing.T) {
	rec := httptest.NewRecorder()
	MultiHandler(goldenRegistry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != ContentType {
		t.Errorf("content type %q, want %q", got, ContentType)
	}
	if rec.Body.Len() == 0 {
		t.Error("empty exposition")
	}
}

// TestValuesMatchExposition pins Values to the exposition series for
// series: every counter sample reads back under its exposition name,
// every histogram's _sum and _count under the family name plus labels,
// gauges and buckets stay out, and the scrape hook runs for both reads.
func TestValuesMatchExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests.").Add(1234)
	cv := r.CounterVec("app_errors_total", "Errors by class.", "class")
	cv.With("decode").Add(3)
	cv.With(`quo"te`).Add(1)
	r.Gauge("app_level", "A gauge Values leaves out.").Set(2.5)
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	hv := r.HistogramVec("app_stage_seconds", "Per stage.", nil, "stage")
	for _, v := range []float64{0.005, 0.02, 0.5, 2} {
		h.Observe(v)
		hv.With("decode").Observe(v / 3)
	}
	hv.With("merge")
	// A sync hook in the shape of the pipeline's intern mirror: it
	// advances a counter to an outside total, so the two reads agree.
	synced := r.Counter("app_synced_total", "Synced at scrape time.")
	var last int64
	r.OnScrape(func() {
		synced.Add(7 - last)
		last = 7
	})

	counters, hists := r.Values()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	wantCounters := map[string]int64{}
	wantSums, wantCounts := map[string]float64{}, map[string]float64{}
	for key, v := range ParsePrometheus(t, buf.String()) {
		name, labels, _ := strings.Cut(key, "{")
		if labels != "" {
			labels = "{" + labels
		}
		switch {
		case strings.HasSuffix(name, "_bucket"), name == "app_level":
		case strings.HasSuffix(name, "_sum"):
			wantSums[strings.TrimSuffix(name, "_sum")+labels] = v
		case strings.HasSuffix(name, "_count"):
			wantCounts[strings.TrimSuffix(name, "_count")+labels] = v
		default:
			wantCounters[key] = int64(v)
		}
	}
	if len(counters) != len(wantCounters) {
		t.Errorf("Values has %d counters, exposition %d: %v vs %v", len(counters), len(wantCounters), counters, wantCounters)
	}
	for key, want := range wantCounters {
		if got, ok := counters[key]; !ok || got != want {
			t.Errorf("counter %s = %d (present %v), exposition %d", key, got, ok, want)
		}
	}
	if len(hists) != len(wantSums) || len(hists) != len(wantCounts) {
		t.Errorf("Values has %d histograms, exposition %d sums and %d counts", len(hists), len(wantSums), len(wantCounts))
	}
	for key, sum := range wantSums {
		s, ok := hists[key]
		if !ok || s.Sum != sum || float64(s.Count) != wantCounts[key] {
			t.Errorf("histogram %s = %+v (present %v), exposition sum %v count %v", key, s, ok, sum, wantCounts[key])
		}
	}
	// The names are the exposition's own, escaping included.
	for _, key := range []string{"app_synced_total", `app_errors_total{class="quo\"te"}`} {
		if counters[key] == 0 {
			t.Errorf("counter %s missing or zero in %v", key, counters)
		}
	}
	if hists[`app_stage_seconds{stage="decode"}`].Count != 4 {
		t.Errorf("labeled histogram summary wrong: %v", hists)
	}
}

func TestMultiHandlerMergesRegistries(t *testing.T) {
	a := NewRegistry()
	a.Counter("a_total", "").Inc()
	b := NewRegistry()
	b.Counter("b_total", "").Add(2)
	rec := httptest.NewRecorder()
	MultiHandler(a, nil, b).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "a_total 1\n") || !strings.Contains(body, "b_total 2\n") {
		t.Errorf("merged exposition missing series:\n%s", body)
	}
}

// ParsePrometheus delegates to the shared reference reader in obstest —
// kept as a local alias because the parity tests predate the helper
// package.
func ParsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	return obstest.ParsePrometheus(t, text)
}

func TestExpositionParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := ParsePrometheus(t, buf.String())
	checks := map[string]float64{
		"app_requests_total":                    1234,
		`app_errors_total{class="decode"}`:      3,
		"app_temperature_celsius":               36.6,
		`app_latency_seconds_bucket{le="0.01"}`: 1,
		`app_latency_seconds_bucket{le="+Inf"}`: 5,
		"app_latency_seconds_count":             5,
	}
	for k, want := range checks {
		got, ok := samples[k]
		if !ok {
			t.Errorf("sample %q missing", k)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
	// Histogram buckets must be cumulative and monotone.
	prev := -1.0
	for _, le := range []string{"0.01", "0.1", "1", "+Inf"} {
		v := samples[fmt.Sprintf(`app_latency_seconds_bucket{le=%q}`, le)]
		if v < prev {
			t.Errorf("bucket le=%s = %v not monotone (prev %v)", le, v, prev)
		}
		prev = v
	}
}
