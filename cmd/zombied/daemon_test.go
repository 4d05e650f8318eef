package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"testing"
	"time"

	"zombiescope/internal/livefeed"
	"zombiescope/internal/obs"
)

// testConfig is a small, fast daemon instance: simulated scenario on
// loopback with ephemeral ports, buffers sized so nothing is evicted.
func testConfig() config {
	return config{
		listenAddr: "127.0.0.1:0",
		httpAddr:   "127.0.0.1:0",
		seed:       42,
		scale:      64,
		threshold:  90 * time.Minute,
		ringSize:   1 << 13,
		replayBuf:  1 << 13,
		grace:      5 * time.Second,
	}
}

func testLogger(t *testing.T) *slog.Logger {
	t.Helper()
	l, err := obs.NewLogger(io.Discard, "text", "error")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// readyzBody is the /readyz JSON payload the tests care about.
type readyzBody struct {
	Ready         bool   `json:"ready"`
	Seq           uint64 `json:"seq"`
	Subscribers   int    `json:"subscribers"`
	PendingChecks int    `json:"pending_checks"`
}

func getReadyz(t *testing.T, base string) (int, readyzBody) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body readyzBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDaemonLifecycle exercises a full daemon life: serving while warming
// up (/healthz 200, /readyz 503), readiness flipping once the replay
// completes, and a graceful shutdown that drains a connected subscriber —
// every published sequence reaches the client even though it only starts
// reading after the shutdown begins.
func TestDaemonLifecycle(t *testing.T) {
	gate := make(chan struct{})
	cfg := testConfig()
	cfg.replayGate = gate
	d, err := newDaemon(cfg, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- d.run(ctx) }()

	base := "http://" + d.httpAddr().String()

	// Liveness is up before the replay: the process serves HTTP while
	// warming, it is just not ready.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	if code, body := getReadyz(t, base); code != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("/readyz before replay = %d ready=%v, want 503 ready=false", code, body.Ready)
	}

	// Subscribe before anything is published. FromStart means the whole
	// feed must reach this client even though it connected first.
	conn, err := livefeed.DialWith(d.feedAddr().String(), livefeed.Filter{}, livefeed.PolicyDropOldest, 0,
		livefeed.DialOptions{FromStart: true, IdleTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Ack.Lost != 0 {
		t.Fatalf("ack reports %d lost events on a fresh subscription", conn.Ack.Lost)
	}

	// The client deliberately does not read until the shutdown begins:
	// everything it is owed sits queued server-side, so the final
	// contiguity check below observes the drain, not normal streaming.
	startRead := make(chan struct{})
	type readResult struct {
		seqs []uint64
		err  error
	}
	readDone := make(chan readResult, 1)
	go func() {
		<-startRead
		var res readResult
		for {
			ev, err := conn.Next()
			if err != nil {
				res.err = err
				readDone <- res
				return
			}
			res.seqs = append(res.seqs, ev.Seq)
		}
	}()

	// Release the replay and wait for readiness.
	close(gate)
	deadline := time.Now().Add(2 * time.Minute)
	var head uint64
	for {
		code, body := getReadyz(t, base)
		if code == http.StatusOK {
			if !body.Ready || body.Seq == 0 || body.PendingChecks != 0 {
				t.Fatalf("ready daemon reports %+v", body)
			}
			head = body.Seq
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Graceful shutdown: broker first, then the handlers drain within the
	// grace period. The reader starts now — if the daemon dropped queued
	// events on exit, the contiguity check fails.
	cancel()
	close(startRead)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}

	var res readResult
	select {
	case res = <-readDone:
	case <-time.After(30 * time.Second):
		t.Fatal("subscriber connection never closed")
	}
	if uint64(len(res.seqs)) != head {
		t.Fatalf("subscriber drained %d events, daemon published %d (read ended with %v)",
			len(res.seqs), head, res.err)
	}
	for i, seq := range res.seqs {
		if seq != uint64(i+1) {
			t.Fatalf("sequence gap after graceful shutdown: position %d holds seq %d", i, seq)
		}
	}
}

// TestDaemonOneshot checks that -oneshot mode exits by itself after the
// replay, with the HTTP surface disabled.
func TestDaemonOneshot(t *testing.T) {
	cfg := testConfig()
	cfg.httpAddr = ""
	cfg.oneshot = true
	d, err := newDaemon(cfg, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.httpAddr() != nil {
		t.Fatal("http listener bound despite empty httpAddr")
	}
	runDone := make(chan error, 1)
	go func() { runDone <- d.run(context.Background()) }()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("oneshot daemon did not exit after replay")
	}
	if d.broker.Seq() == 0 {
		t.Fatal("oneshot run published no events")
	}
	if !d.ready.Load() {
		t.Fatal("oneshot run finished without flipping ready")
	}
}

// TestDaemonStoreRecovery runs a daemon to completion with a durable
// event store, then restarts over the same directory: the second daemon
// must continue sequence numbering where the first stopped, become ready
// from the journal without republishing anything, and serve the complete
// first-run history to a FromStart subscriber with zero reported loss —
// even though the second run's in-memory replay window starts empty.
func TestDaemonStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	storeCfg := func() config {
		cfg := testConfig()
		cfg.storeDir = dir
		cfg.storeSegSize = 1 << 16
		return cfg
	}

	cfg1 := storeCfg()
	cfg1.httpAddr = ""
	cfg1.oneshot = true
	d1, err := newDaemon(cfg1, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	head := d1.broker.Seq()
	if head == 0 {
		t.Fatal("first run published nothing")
	}

	d2, err := newDaemon(storeCfg(), testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- d2.run(ctx) }()

	base := "http://" + d2.httpAddr().String()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := getReadyz(t, base)
		if code == http.StatusOK {
			if body.Seq != head {
				t.Fatalf("recovered daemon at seq %d, want %d (clean restart must republish nothing)", body.Seq, head)
			}
			if body.PendingChecks != 0 {
				t.Fatalf("recovered daemon left %d checks pending", body.PendingChecks)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The whole first-run history must come back from the journal.
	conn, err := livefeed.DialWith(d2.feedAddr().String(), livefeed.Filter{}, livefeed.PolicyDropOldest, 0,
		livefeed.DialOptions{FromStart: true, IdleTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Ack.Lost != 0 {
		t.Fatalf("ack reports %d lost events across restart", conn.Ack.Lost)
	}
	for want := uint64(1); want <= head; want++ {
		ev, err := conn.Next()
		if err != nil {
			t.Fatalf("reading journaled history at seq %d: %v", want, err)
		}
		if ev.Seq != want {
			t.Fatalf("history gap: got seq %d, want %d", ev.Seq, want)
		}
	}

	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("second run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("second run did not exit after cancel")
	}
}

// TestDaemonListenErrors pins the error paths of newDaemon: a bad feed
// address fails, and a bad HTTP address fails without leaking the
// already-bound feed listener.
func TestDaemonListenErrors(t *testing.T) {
	lg := testLogger(t)
	cfg := testConfig()
	cfg.listenAddr = "256.0.0.1:0"
	if _, err := newDaemon(cfg, lg); err == nil {
		t.Fatal("bad feed listen address accepted")
	}

	cfg = testConfig()
	cfg.httpAddr = "256.0.0.1:0"
	d1, err := newDaemon(cfg, lg)
	if err == nil {
		t.Fatal("bad http listen address accepted")
	}
	_ = d1
	// The feed port the failed attempt grabbed must be released: a
	// second daemon on the same ephemeral setup binds cleanly.
	d2, err := newDaemon(testConfig(), lg)
	if err != nil {
		t.Fatalf("daemon after failed attempt: %v", err)
	}
	d2.feedL.Close()
	if d2.httpL != nil {
		d2.httpL.Close()
	}
}

// TestDaemonRejectsNonPositiveThreshold: a zero or negative -threshold
// is refused rather than quietly replaced by the detector's default.
func TestDaemonRejectsNonPositiveThreshold(t *testing.T) {
	for _, th := range []time.Duration{0, -30 * time.Minute} {
		cfg := testConfig()
		cfg.threshold = th
		if d, err := newDaemon(cfg, testLogger(t)); err == nil {
			d.feedL.Close()
			if d.httpL != nil {
				d.httpL.Close()
			}
			t.Errorf("threshold %v accepted", th)
		}
	}
}

// TestDaemonRejectsNegativeStoreFlags: a negative -store-segment-bytes,
// -store-retain or -store-sync is refused rather than quietly read as the
// default, unlimited retention or seal-only fsync.
func TestDaemonRejectsNegativeStoreFlags(t *testing.T) {
	for name, set := range map[string]func(*config){
		"segment-bytes": func(c *config) { c.storeSegSize = -1 },
		"retain":        func(c *config) { c.storeRetain = -1 },
		"sync":          func(c *config) { c.storeSync = -3 },
	} {
		cfg := testConfig()
		cfg.storeDir = t.TempDir()
		set(&cfg)
		if d, err := newDaemon(cfg, testLogger(t)); err == nil {
			d.feedL.Close()
			if d.httpL != nil {
				d.httpL.Close()
			}
			if d.store != nil {
				d.store.Close()
			}
			t.Errorf("negative store %s accepted", name)
		}
	}
}
