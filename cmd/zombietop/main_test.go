package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zombiescope/internal/livefeed"
	"zombiescope/internal/obs"
	"zombiescope/internal/statusz"
)

// syncBuffer is a bytes.Buffer safe to read while the dashboard loop
// writes from its own goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serveStatus runs a test HTTP server whose /statusz handler serves the
// given sequence of snapshots, one per request (the last repeats).
func serveStatus(t *testing.T, snaps ...statusz.Status) *httptest.Server {
	t.Helper()
	i := 0
	srv := httptest.NewServer(statusz.Handler(func() statusz.Status {
		st := snaps[i]
		if i < len(snaps)-1 {
			i++
		}
		return st
	}))
	t.Cleanup(srv.Close)
	return srv
}

func sample() statusz.Status {
	return statusz.Status{
		Server: "zombied/1", GoVersion: "go-test", NumCPU: 2,
		Ready: true, HeadSeq: 420, Subscribers: 2, Shards: 1,
		Counters: map[string]int64{"livefeed_records_in_total": 100, "livefeed_bytes_written_total": 9000},
		Stages: map[string]obs.HistogramSummary{
			"livefeed_e2e_seconds": {Count: 99, P50: 150e-6, P99: 900e-6, P999: 2e-3},
		},
		Sessions: []livefeed.SessionInfo{
			{ID: 1, Policy: "drop-oldest", Lag: 3, Queue: 2, Cap: 8},
			{ID: 2, Policy: "block", Lag: 40, Queue: 8, Cap: 8},
		},
	}
}

// TestOneshot pins the CI smoke entry point: one fetch, one frame, no
// clear sequence, rates dashed out.
func TestOneshot(t *testing.T) {
	srv := serveStatus(t, sample())
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, srv.URL, time.Second, 0, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"zombied/1", "head 420", "livefeed_e2e_seconds", "in -", "drop-oldest"} {
		if !strings.Contains(out, want) {
			t.Errorf("oneshot frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("oneshot frame contains ANSI clear sequences")
	}
	// The highest-lag session leads the table.
	if strings.Index(out, "block") > strings.Index(out, "drop-oldest") {
		t.Errorf("sessions not sorted by lag:\n%s", out)
	}
}

// TestLoopRates checks the second frame derives rates from the counter
// deltas of consecutive snapshots and that the loop stops on ctx cancel.
func TestLoopRates(t *testing.T) {
	first := sample()
	second := sample()
	second.Counters["livefeed_records_in_total"] = 300
	second.UnixNanos = first.UnixNanos // stamped by the handler anyway
	srv := serveStatus(t, first, second)

	ctx, cancel := context.WithCancel(context.Background())
	var buf syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, &buf, srv.URL, 10*time.Millisecond, 1, false) }()

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(buf.String(), "/s") {
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("no rate column after two frames:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("loop did not stop on cancel")
	}
	out := buf.String()
	if !strings.Contains(out, "\x1b[H\x1b[J") {
		t.Error("loop frames missing the ANSI repaint sequence")
	}
	// top=1 keeps only the worst session.
	if strings.Contains(out, "drop-oldest") {
		t.Errorf("top=1 should hide the low-lag session:\n%s", out)
	}
}

// TestFetchError: a dashboard that cannot reach its daemon exits with
// the error instead of spinning.
func TestFetchError(t *testing.T) {
	srv := serveStatus(t, sample())
	srv.Close()
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, srv.URL, time.Second, 0, true); err == nil {
		t.Fatal("run succeeded against a closed server")
	}
}
