package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "", []float64{0.01, 0.1, 1})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	// 100 samples in the first bucket, 100 in the second.
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
		h.Observe(0.05)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 0.01 {
		t.Errorf("p50 = %v, want in (0, 0.01]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 0.01 || p99 > 0.1 {
		t.Errorf("p99 = %v, want in (0.01, 0.1]", p99)
	}
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	// Samples beyond the highest bound land in +Inf; the quantile clamps
	// to the highest finite bound instead of reporting infinity.
	h.Observe(50)
	if got := h.Quantile(1); math.IsInf(got, 1) || got > 1 {
		t.Errorf("p100 = %v, want clamped to highest finite bound 1", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("s_seconds", "", []float64{0.001, 0.01, 0.1, 1})
	var nilH *Histogram
	if s := nilH.Summary(); s.Count != 0 {
		t.Errorf("nil histogram summary = %+v, want zero", s)
	}
	for i := 0; i < 1000; i++ {
		h.Observe(0.005)
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Errorf("Count = %d, want 1000", s.Count)
	}
	if math.Abs(s.Sum-5) > 1e-9 {
		t.Errorf("Sum = %v, want 5", s.Sum)
	}
	if s.P50 <= 0.001 || s.P50 > 0.01 {
		t.Errorf("P50 = %v, want in (0.001, 0.01]", s.P50)
	}
	if s.P999 < s.P99 || s.P99 < s.P50 {
		t.Errorf("quantiles not ordered: %+v", s)
	}
}

func TestVecDelete(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("sub_lag", "", "id")
	g.With("a").Set(1)
	g.With("b").Set(2)
	g.Delete("a")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `id="a"`) {
		t.Errorf("deleted child still exposed:\n%s", out)
	}
	if !strings.Contains(out, `sub_lag{id="b"} 2`) {
		t.Errorf("surviving child missing:\n%s", out)
	}
	// Deleting a never-created child is a no-op, and a re-created child
	// after delete starts fresh.
	g.Delete("never")
	g.With("a").Set(7)
	buf.Reset()
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `sub_lag{id="a"} 7`) {
		t.Errorf("re-created child missing:\n%s", buf.String())
	}

	// Only gauge children are deleted in use (a detached subscriber's);
	// the family's delete serves counters and histograms alike.
	c := r.CounterVec("ops_total", "", "kind")
	c.With("x").Inc()
	c.f.delete([]string{"x"})
	hv := r.HistogramVec("lat_seconds", "", []float64{1}, "kind")
	hv.With("x").Observe(0.5)
	hv.f.delete([]string{"x"})
	buf.Reset()
	r.WritePrometheus(&buf)
	if strings.Contains(buf.String(), `kind="x"`) {
		t.Errorf("deleted counter/histogram children still exposed:\n%s", buf.String())
	}
}

func TestOnScrapeRunsPerExposition(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hooked", "")
	n := 0
	r.OnScrape(func() {
		n++
		g.Set(float64(n))
	})
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	r.WritePrometheus(&buf)
	if n != 2 {
		t.Fatalf("hook ran %d times over 2 scrapes, want 2", n)
	}
	if !strings.Contains(buf.String(), "hooked 2") {
		t.Errorf("second scrape missing refreshed value:\n%s", buf.String())
	}
}

// A scrape hook that itself touches the registry (creating children,
// setting gauges) must not deadlock against the exposition's locks.
func TestOnScrapeMayTouchRegistry(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("dyn", "", "k")
	r.OnScrape(func() { v.With("fresh").Set(1) })
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		r.WritePrometheus(&buf)
		close(done)
	}()
	<-done
	if !strings.Contains(buf.String(), `dyn{k="fresh"} 1`) {
		t.Errorf("hook-created child missing:\n%s", buf.String())
	}
}
