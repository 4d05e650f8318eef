// Command zombied is the live zombie-detection daemon: it serves a
// RIS-Live-style feed of collector records plus a dedicated channel of
// real-time zombie/resurrection alerts, implementing the paper's §6
// "real-time detection of BGP zombies" as a network service.
//
// The daemon replays an MRT archive directory (as produced by beaconsim,
// layout <dir>/<collector>/updates.mrt) or, with no -archive, generates
// the paper's author-beacon scenario in memory. Records are published on
// the "updates" feed channel; a server-side zombie.StreamDetector watches
// the same stream and publishes alerts on the "zombie" channel the moment
// a stuck route passes the threshold.
//
// Usage:
//
//	zombied -listen :4739 -http :8479 \
//	        [-archive ./archive -from 2024-06-10T11:30:00Z -to 2024-06-22T17:30:00Z \
//	         -base 2a0d:3dc1::/32 -approach 15d -stride 1] \
//	        [-seed 42 -scale 8]           (simulated scenario mode) \
//	        [-store-dir ./store -store-segment-bytes 67108864 -store-retain 0 \
//	         -store-sync 0] \
//	        [-threshold 90m] [-speed 0] [-policy-block] [-oneshot] [-grace 5s]
//
// With -store-dir the daemon journals every published event to a durable
// segmented event store (internal/eventstore). Across restarts the store
// serves resume-from-sequence for windows long gone from RAM, and the
// daemon recovers its detector state from the journal instead of
// replaying the whole archive — /readyz flips near-instantly and
// ingestion resumes exactly where the previous run stopped, appending to
// the newest segment while it is below -store-segment-bytes rather than
// starting a new one. -store-retain bounds the sealed segments; the
// active segment comes on top.
//
// Subscribers connect with livefeed.Client (or any implementation of the
// frame protocol documented in internal/livefeed), choosing server-side
// filters and a backpressure policy (drop-oldest, kick-slowest; block
// only when -policy-block is set). A subscribe frame with "format": "mrt"
// receives each update that carries its MRT record as a record frame
// (sequence number, collector name, the RFC 6396 record) instead of a
// JSON event frame; alerts and heartbeats stay JSON. The Go client always
// asks for it; a client that does not ask gets JSON event frames exactly
// as before, and a server that predates the field ignores it. /statusz
// names each session's format. -speed 0 replays as fast as possible;
// -speed 3600 plays one simulated hour per wall second.
//
// On SIGINT/SIGTERM the daemon exits gracefully: the broker closes so
// subscribers stop filling, then every feed handler gets up to -grace to
// flush its subscriber's buffered events before the connection is cut.
//
// The HTTP endpoint is the daemon's observability surface:
//
//	/metrics           Prometheus text exposition of every subsystem
//	                   (livefeed broker + detector, pipeline stages,
//	                   collector fleet, Go runtime) as one scrape target
//	/statusz           one-page introspection snapshot: stage latency
//	                   summaries, per-subscriber sessions, store
//	                   watermarks (JSON; ?format=html for a browser view;
//	                   `zombietop` renders it live in a terminal)
//	/healthz           pure liveness (200 once the HTTP server is up)
//	/readyz            readiness: 503 until the archive replay completes
//	/debug/pprof/      the standard Go profiler endpoints
//
// With -trace the daemon samples 1 of every -trace-sample published
// events into a per-event span tree (encode, journal append, fan-out,
// socket flush) and writes a Chrome trace file ("chrome://tracing",
// Perfetto) at exit.
//
// Logs are structured (log/slog); -log-format selects text or json and
// -log-level the threshold.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/obs"
)

func main() {
	var (
		listenAddr = flag.String("listen", ":4739", "feed TCP listen address")
		httpAddr   = flag.String("http", ":8479", "HTTP listen address for /healthz and /metrics (empty disables)")
		archiveDir = flag.String("archive", "", "MRT archive directory to replay (empty: simulate the author scenario)")
		seed       = flag.Uint64("seed", 42, "simulation seed (scenario mode)")
		scale      = flag.Int("scale", 8, "simulation scale divisor (scenario mode)")
		schedKind  = flag.String("schedule", "author", "beacon schedule for archive mode: author | ris")
		baseStr    = flag.String("base", "2a0d:3dc1::/32", "beacon base prefix (author schedule)")
		approach   = flag.String("approach", "15d", "beacon recycle approach: 24h | 15d (author schedule)")
		origin     = flag.Uint64("origin", 210312, "beacon origin ASN")
		stride     = flag.Int("stride", 1, "beacon slot stride (archive mode)")
		fromStr    = flag.String("from", "", "experiment start, RFC 3339 (archive mode)")
		toStr      = flag.String("to", "", "experiment end, RFC 3339 (archive mode)")
		storeDir   = flag.String("store-dir", "", "durable event store directory (empty disables persistence)")
		storeSeg   = flag.Int64("store-segment-bytes", 0, "store segment size before rotation (0: 64 MiB)")
		storeRet   = flag.Int64("store-retain", 0, "store retention budget in bytes for sealed segments, oldest dropped first; the active segment comes on top (0: unlimited)")
		storeSync  = flag.Int("store-sync", 0, "fsync the store every N appends (0: only on segment seal)")
		threshold  = flag.Duration("threshold", 90*time.Minute, "zombie detection threshold")
		speed      = flag.Float64("speed", 0, "replay speed: 0 = as fast as possible, N = N simulated seconds per wall second")
		ringSize   = flag.Int("ring", 1024, "per-subscriber ring buffer size (events)")
		replayBuf  = flag.Int("resume-buffer", 4096, "events retained for resume-from-sequence")
		allowBlock = flag.Bool("policy-block", false, "allow subscribers to request the block backpressure policy")
		writeBatch = flag.Int("write-batch", 0, "max frames gathered per writev to a subscriber (0: default 64)")
		oneshot    = flag.Bool("oneshot", false, "exit once the replay completes instead of serving forever")
		grace      = flag.Duration("grace", 5*time.Second, "how long a graceful exit waits for subscribers to drain")
		traceFile  = flag.String("trace", "", "write a Chrome trace of sampled event spans to this file at exit (empty disables tracing)")
		traceSmpl  = flag.Int("trace-sample", 256, "trace 1 of every N published events (with -trace; 0 disables event spans)")
		logFormat  = flag.String("log-format", "text", "log output format: text | json")
		logLevel   = flag.String("log-level", "info", "log threshold: debug | info | warn | error")
	)
	flag.Parse()

	base, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger := obs.Component(base, "zombied")

	cfg := config{
		listenAddr:   *listenAddr,
		httpAddr:     *httpAddr,
		archiveDir:   *archiveDir,
		seed:         *seed,
		scale:        *scale,
		schedule:     *schedKind,
		base:         *baseStr,
		approach:     *approach,
		origin:       bgp.ASN(*origin),
		stride:       *stride,
		from:         *fromStr,
		to:           *toStr,
		storeDir:     *storeDir,
		storeSegSize: *storeSeg,
		storeRetain:  *storeRet,
		storeSync:    *storeSync,
		threshold:    *threshold,
		speed:        *speed,
		ringSize:     *ringSize,
		replayBuf:    *replayBuf,
		allowBlock:   *allowBlock,
		writeBatch:   *writeBatch,
		oneshot:      *oneshot,
		grace:        *grace,
		traceFile:    *traceFile,
		traceSample:  *traceSmpl,
	}
	d, err := newDaemon(cfg, logger)
	if err != nil {
		logger.Error("starting daemon", "err", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.run(ctx); err != nil {
		logger.Error("daemon", "err", err)
		os.Exit(1)
	}
}
