package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"zombiescope/internal/archive"
	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/eventstore"
	"zombiescope/internal/experiments"
	"zombiescope/internal/livefeed"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
	"zombiescope/internal/statusz"
)

// config carries the daemon's resolved settings, one field per flag.
// main translates the command line into one of these; lifecycle tests
// construct them directly (with ":0" listen addresses).
type config struct {
	listenAddr string
	httpAddr   string // empty disables the HTTP surface
	archiveDir string // empty selects the simulated author scenario
	seed       uint64
	scale      int
	schedule   string
	base       string
	approach   string
	origin     bgp.ASN
	stride     int
	from, to   string
	// storeDir enables the durable event store: every published event is
	// journaled there, and a restarted daemon recovers detector state and
	// resume-from-sequence history from it. Empty disables persistence.
	storeDir     string
	storeSegSize int64         // segment rotation size (0: eventstore default)
	storeRetain  int64         // retention budget in bytes (0: unlimited)
	storeSync    int           // fsync every N appends (0: on seal only)
	storeCompact time.Duration // background compaction interval (0: off)
	threshold    time.Duration
	speed        float64
	ringSize     int
	replayBuf    int
	allowBlock   bool
	writeBatch   int // frames per writev batch (0: server default)
	oneshot      bool
	// grace bounds how long an exiting daemon waits for feed handlers to
	// flush their subscribers' buffered events. Default 5s.
	grace time.Duration
	// traceFile, when set, installs a process-wide tracer and writes its
	// Chrome trace there at exit; traceSample is the broker's 1/N event
	// span sampling rate (0: no per-event spans, only coarse ones).
	traceFile   string
	traceSample int

	// replayGate, when non-nil, holds the replay until the channel is
	// closed. Lifecycle tests use it to observe the not-ready window;
	// main leaves it nil.
	replayGate <-chan struct{}
}

func (c config) graceOrDefault() time.Duration {
	if c.grace <= 0 {
		return 5 * time.Second
	}
	return c.grace
}

// daemon is one fully-wired zombied instance: feed source, broker,
// detection pipeline, feed server and HTTP surface, bound to live
// listeners. Everything is per-instance (no package-level state), so
// tests can run several daemons in one process.
type daemon struct {
	cfg    config
	logger *slog.Logger

	broker *livefeed.Broker
	pipe   *livefeed.Pipeline
	srv    *livefeed.Server
	store  *eventstore.Store // nil without -store-dir

	stream  []livefeed.SourcedRecord
	flushAt time.Time
	started time.Time   // process birth, for /statusz uptime
	tracer  *obs.Tracer // non-nil only with cfg.traceFile

	feedL net.Listener
	httpL net.Listener // nil when the HTTP surface is disabled

	// ready flips once the replay has finished (gates /readyz).
	ready atomic.Bool
	// stopping suppresses the accept-loop error that Close provokes.
	stopping atomic.Bool
}

// newDaemon loads the feed source and binds both listeners; after it
// returns, feedAddr/httpAddr are final and run can be called. On error
// nothing is left listening.
func newDaemon(cfg config, logger *slog.Logger) (*daemon, error) {
	feed, err := loadFeed(cfg)
	if err != nil {
		return nil, fmt.Errorf("loading feed source: %w", err)
	}
	stream, err := livefeed.MergeUpdates(feed.updates)
	if err != nil {
		return nil, fmt.Errorf("merging update archives: %w", err)
	}
	logger.Info("feed source ready",
		"records", len(stream),
		"collectors", len(feed.updates),
		"intervals", len(feed.intervals))

	// One registry carries the broker + detector instruments plus the Go
	// runtime gauges; /metrics unions it with the pipeline and
	// collector-fleet registries so the daemon is a single scrape target.
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	bcfg := livefeed.Config{
		RingSize:    cfg.ringSize,
		ReplaySize:  cfg.replayBuf,
		Metrics:     livefeed.NewMetrics(reg),
		TraceSample: cfg.traceSample,
	}
	var store *eventstore.Store
	if cfg.storeDir != "" {
		store, err = eventstore.Open(eventstore.Options{
			Dir:             cfg.storeDir,
			SegmentBytes:    cfg.storeSegSize,
			SyncEvery:       cfg.storeSync,
			RetainBytes:     cfg.storeRetain,
			CompactInterval: cfg.storeCompact,
			Metrics:         eventstore.NewMetrics(reg),
		})
		if err != nil {
			return nil, fmt.Errorf("opening event store: %w", err)
		}
		bcfg.Journal = &livefeed.StoreJournal{Store: store}
		bcfg.StartSeq = store.LastSeq()
		logger.Info("event store open", "dir", cfg.storeDir,
			"first_seq", store.FirstSeq(), "last_seq", store.LastSeq(),
			"segments", len(store.SegmentInfos()))
	}
	broker := livefeed.NewBroker(bcfg)
	d := &daemon{
		cfg:    cfg,
		logger: logger,
		broker: broker,
		store:  store,
		pipe:   livefeed.NewPipeline(broker, feed.intervals, cfg.threshold),
		srv: &livefeed.Server{
			Broker: broker, Name: "zombied/1",
			AllowBlock: cfg.allowBlock, WriteBatch: cfg.writeBatch,
			// Connection-lifecycle errors arrive at reconnect-storm rate;
			// throttle them so a flapping client cannot flood the log.
			Log: obs.Throttled(obs.Component(logger, "livefeed"), time.Second, 4),
		},
		stream:  stream,
		flushAt: feed.flushAt,
		started: time.Now(),
	}
	if cfg.traceFile != "" {
		d.tracer = obs.NewTracer()
		obs.SetTracer(d.tracer)
	}
	d.feedL, err = net.Listen("tcp", cfg.listenAddr)
	if err != nil {
		d.closeStore()
		return nil, fmt.Errorf("feed listen: %w", err)
	}
	if cfg.httpAddr != "" {
		d.httpL, err = net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			d.feedL.Close()
			d.closeStore()
			return nil, fmt.Errorf("http listen: %w", err)
		}
	}
	return d, nil
}

// closeStore seals and closes the event store if one is open.
func (d *daemon) closeStore() {
	if d.store == nil {
		return
	}
	if err := d.store.Close(); err != nil {
		d.logger.Error("closing event store", "err", err)
	}
}

// feedAddr is the bound feed listener address (resolved ":0" included).
func (d *daemon) feedAddr() net.Addr { return d.feedL.Addr() }

// httpAddr is the bound HTTP listener address, or nil when disabled.
func (d *daemon) httpAddr() net.Addr {
	if d.httpL == nil {
		return nil
	}
	return d.httpL.Addr()
}

// run serves the feed, replays the source through the detector, and —
// when ctx is canceled (or immediately in oneshot mode once the replay
// completes) — exits gracefully: the broker closes first so subscribers
// stop filling, then the feed server drains every handler within the
// grace period, so events already queued to a subscriber are never
// dropped by an orderly exit.
func (d *daemon) run(ctx context.Context) error {
	go func() {
		if err := d.srv.Serve(d.feedL); err != nil && !d.stopping.Load() {
			d.logger.Error("feed server", "err", err)
		}
	}()
	d.logger.Info("feed listening", "addr", d.feedAddr().String())

	var httpSrv *http.Server
	if d.httpL != nil {
		httpSrv = &http.Server{Handler: d.httpMux()}
		go httpSrv.Serve(d.httpL)
		d.logger.Info("http listening", "addr", d.httpAddr().String(),
			"endpoints", "/metrics /statusz /healthz /readyz /debug/pprof/")
	}

	replayed := make(chan error, 1)
	go func() {
		if gate := d.cfg.replayGate; gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				replayed <- ctx.Err()
				return
			}
		}
		stream := d.stream
		if d.store != nil && d.store.LastSeq() > 0 {
			// Warm restart: rebuild the detector from the journal (alerts
			// muted — the previous run already delivered them) and resume
			// archive ingestion where the crash cut it off. Readiness
			// flips as soon as the recovery scan completes, not after the
			// full archive replay.
			n, err := d.pipe.Recover(d.store)
			if err != nil {
				replayed <- fmt.Errorf("recovering from event store: %w", err)
				return
			}
			offset := livefeed.ResumeOffset(stream, n)
			stream = stream[offset:]
			d.ready.Store(true)
			d.logger.Info("detector recovered from event store",
				"records", n, "resume_offset", offset, "remaining", len(stream))
		}
		err := d.pipe.Replay(ctx, stream, d.flushAt, d.cfg.speed)
		if err == nil {
			d.ready.Store(true)
		}
		replayed <- err
	}()

	var runErr error
	if d.cfg.oneshot {
		if err := <-replayed; err != nil && err != context.Canceled {
			runErr = fmt.Errorf("replay: %w", err)
		} else {
			d.logger.Info("replay done, exiting (oneshot)", "events", d.broker.Seq())
		}
	} else {
		select {
		case err := <-replayed:
			if err != nil && err != context.Canceled {
				runErr = fmt.Errorf("replay: %w", err)
			} else {
				d.logger.Info("replay done, serving subscribers (ctrl-c to exit)", "events", d.broker.Seq())
				<-ctx.Done()
			}
		case <-ctx.Done():
		}
	}

	d.stopping.Store(true)
	d.broker.Close()
	d.srv.Shutdown(d.cfg.graceOrDefault())
	if httpSrv != nil {
		httpSrv.Close()
	}
	// The broker is closed, so no further journal appends: seal and fsync
	// the store last so everything published is durable.
	d.closeStore()
	d.writeTrace()
	return runErr
}

// writeTrace exports the sampled event spans as a Chrome trace file and
// uninstalls the tracer. No-op without -trace.
func (d *daemon) writeTrace() {
	if d.tracer == nil {
		return
	}
	obs.SetTracer(nil)
	f, err := os.Create(d.cfg.traceFile)
	if err != nil {
		d.logger.Error("creating trace file", "err", err)
		return
	}
	defer f.Close()
	if err := d.tracer.WriteChromeTrace(f); err != nil {
		d.logger.Error("writing trace", "err", err)
		return
	}
	d.logger.Info("trace written", "path", d.cfg.traceFile, "spans", d.tracer.Len())
}

// httpMux assembles the daemon's observability surface: a unified
// Prometheus scrape, the statusz page, split liveness/readiness probes,
// and the Go profiler.
func (d *daemon) httpMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MultiHandler(d.broker.Metrics().Registry(), pipeline.Default.Registry(), collector.Registry()))
	mux.Handle("/statusz", statusz.Handler(d.status))
	// /healthz is pure liveness: the process is up and serving HTTP.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
	})
	// /readyz gates on the replay: a fresh daemon is not ready until the
	// archive has been fed through the detector (load balancers should
	// not route live subscribers to a daemon still warming up).
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ready := d.ready.Load()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		body := map[string]any{
			"ready":          ready,
			"seq":            d.broker.Seq(),
			"subscribers":    d.broker.SubscriberCount(),
			"pending_checks": d.pipe.PendingChecks(),
		}
		if d.store != nil {
			body["store_first_seq"] = d.store.FirstSeq()
			body["store_last_seq"] = d.store.LastSeq()
		}
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// status assembles the /statusz snapshot: every number a human reaches
// for first when a feed looks wrong, in one document. All sources are
// concurrency-safe reads (atomics, mutex-guarded snapshots), so the
// builder may run at any point of the daemon's life.
func (d *daemon) status() statusz.Status {
	counters, stages := d.broker.Metrics().Registry().Values()
	pc, ps := pipeline.Default.Registry().Values()
	maps.Copy(counters, pc)
	maps.Copy(stages, ps)
	st := statusz.Status{
		Server:        d.srv.Name,
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		UptimeSeconds: time.Since(d.started).Seconds(),
		Ready:         d.ready.Load(),
		HeadSeq:       d.broker.Seq(),
		PendingChecks: d.pipe.PendingChecks(),
		Subscribers:   d.broker.SubscriberCount(),
		Shards:        d.broker.ShardCount(),
		Counters:      counters,
		Stages:        stages,
		Sessions:      d.broker.Sessions(),
		Runtime:       obs.ReadRuntimeStats(),
	}
	if d.store != nil {
		ss := &statusz.StoreStatus{
			Dir:      d.cfg.storeDir,
			FirstSeq: d.store.FirstSeq(),
			LastSeq:  d.store.LastSeq(),
		}
		for _, seg := range d.store.SegmentInfos() {
			ss.Segments++
			ss.Bytes += seg.Bytes
		}
		st.Store = ss
	}
	return st
}

// feedSource is the resolved record source: per-collector update archives
// plus the detection intervals covering them.
type feedSource struct {
	updates   map[string][]byte
	intervals []beacon.Interval
	flushAt   time.Time
}

// loadFeed resolves the daemon's record source: an on-disk archive with a
// schedule reconstructed from the config, or the simulated author
// scenario.
func loadFeed(cfg config) (*feedSource, error) {
	if cfg.archiveDir == "" {
		data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(cfg.seed, cfg.scale))
		if err != nil {
			return nil, err
		}
		return &feedSource{
			updates:   data.Updates,
			intervals: data.Intervals,
			flushAt:   data.Config.TrackUntil,
		}, nil
	}
	intervals, _, _, err := beacon.ParseSchedule(cfg.schedule, cfg.base, cfg.approach, cfg.origin, cfg.stride, cfg.from, cfg.to)
	if err != nil {
		return nil, err
	}
	set, err := archive.Load(cfg.archiveDir)
	if err != nil {
		return nil, err
	}
	return &feedSource{
		updates:   set.Updates,
		intervals: intervals,
		flushAt:   flushInstant(intervals),
	}, nil
}

// flushInstant is when every interval check of the schedule has certainly
// fired: the last recycle horizon plus a margin.
func flushInstant(intervals []beacon.Interval) time.Time {
	var last time.Time
	for _, iv := range intervals {
		if iv.End.After(last) {
			last = iv.End
		}
	}
	return last.Add(24 * time.Hour)
}
