// Anomaly-framework soak: a seeded "mixed" scenario (a MOAS conflict
// plus a community storm layered on the benign beacon campaign) streamed
// through the full wire path — pipeline -> broker -> server -> chaos
// proxy -> reconnecting client. Invariant, per seed: a client-side
// track-all HistoryBuilder fed the merged multi-collector update stream
// from the chaos-battered wire yields an anomaly report bit-identical to
// the batch report built from the archive, so communities and
// non-beacon prefixes survive the wire.
//
// A failing seed prints the command that replays it alone:
//
//	go test -race -run 'TestChaosAnomalySoak' -anomaly.seed=N ./internal/chaos
package chaos_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/chaos"
	"zombiescope/internal/experiments/anomalytest"
	"zombiescope/internal/livefeed"
	"zombiescope/internal/mrt"
	"zombiescope/internal/zombie"
)

var (
	anomalySeeds = flag.Int("anomaly.seeds", 5,
		"how many seeds the anomaly soak matrix runs (seeds 1..N)")
	anomalySeed = flag.Uint64("anomaly.seed", 0,
		"replay the anomaly soak under this one seed instead of the matrix")
)

// anomalyScenarioSeed fixes the generated outbreak: the chaos seed varies
// the faults, not the data.
const anomalyScenarioSeed = 7

// anomalySoakScenario is the shared workload plus its batch reference.
type anomalySoakScenario struct {
	stream    []livefeed.SourcedRecord
	intervals []beacon.Interval
	window    zombie.Window
	batch     *zombie.AnomalyReport
}

var (
	anomalyScenarioOnce sync.Once
	anomalyScenarioVal  *anomalySoakScenario
	anomalyScenarioErr  error
)

func anomalyScenario(t *testing.T) *anomalySoakScenario {
	t.Helper()
	anomalyScenarioOnce.Do(func() {
		sc, err := anomalytest.Generate("mixed", anomalyScenarioSeed)
		if err != nil {
			anomalyScenarioErr = err
			return
		}
		stream, err := livefeed.MergeUpdates(sc.Updates)
		if err != nil {
			anomalyScenarioErr = err
			return
		}
		dets, err := zombie.BuildAnomalyDetectors(nil, zombie.AnomalyConfig{Intervals: sc.Intervals})
		if err != nil {
			anomalyScenarioErr = err
			return
		}
		h, err := zombie.BuildHistory(sc.Updates, nil)
		if err != nil {
			anomalyScenarioErr = err
			return
		}
		anomalyScenarioVal = &anomalySoakScenario{
			stream:    stream,
			intervals: sc.Intervals,
			window:    sc.Window,
			batch:     zombie.RunAnomalyDetectors(h, sc.Window, dets, 0),
		}
	})
	if anomalyScenarioErr != nil {
		t.Fatal(anomalyScenarioErr)
	}
	for _, det := range []string{"moas", "community"} {
		if anomalyScenarioVal.batch.ByDetector[det] == 0 {
			t.Fatalf("mixed scenario produced no %s findings; the soak would prove nothing", det)
		}
	}
	return anomalyScenarioVal
}

// TestChaosAnomalySoak runs the anomaly wire path under each seed of the
// matrix. The name matches the chaos CI job's -run Chaos filter, so it
// rides the existing soak job.
func TestChaosAnomalySoak(t *testing.T) {
	sc := anomalyScenario(t)
	seeds := make([]uint64, 0, *anomalySeeds)
	if *anomalySeed != 0 {
		seeds = append(seeds, *anomalySeed)
	} else {
		for i := 0; i < *anomalySeeds; i++ {
			seeds = append(seeds, uint64(i+1))
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runAnomalySoakSeed(t, sc, seed)
		})
	}
}

func runAnomalySoakSeed(t *testing.T, sc *anomalySoakScenario, seed uint64) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\nreplay: go test -race -run 'TestChaosAnomalySoak' -anomaly.seed=%d ./internal/chaos",
			seed, fmt.Sprintf(format, args...), seed)
	}

	// Server side: the pipeline behind a chaos listener. The rings cover
	// the whole scenario so resume never loses events.
	broker := livefeed.NewBroker(livefeed.Config{RingSize: 1 << 14, ReplaySize: 1 << 14})
	defer broker.Close()
	pipe := livefeed.NewPipeline(broker, sc.intervals, 0)
	srv := &livefeed.Server{
		Broker:            broker,
		Name:              "anomaly-soak",
		HeartbeatInterval: 30 * time.Millisecond,
		WriteTimeout:      2 * time.Second,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(soakPlan(seed))
	go srv.Serve(inj.Listener(l))
	defer srv.Close()

	// Client side: a reconnecting consumer rebuilding its own anomaly
	// history from the raw update events.
	var mu sync.Mutex
	var seqs []uint64
	clientStream := zombie.NewHistoryBuilder(nil)
	var onEventErr error
	client := &livefeed.Client{
		Addr:             l.Addr().String(),
		MinBackoff:       time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
		HandshakeTimeout: 400 * time.Millisecond,
		IdleTimeout:      100 * time.Millisecond,
		FromStart:        true,
		OnEvent: func(ev livefeed.Event) {
			mu.Lock()
			defer mu.Unlock()
			seqs = append(seqs, ev.Seq)
			if onEventErr != nil || ev.Channel != livefeed.ChannelUpdates {
				return
			}
			rec, err := new(mrt.Decoder).DecodeFramed(ev.Raw)
			if err != nil {
				onEventErr = fmt.Errorf("seq %d: decode raw record: %w", ev.Seq, err)
				return
			}
			if err := clientStream.Observe(ev.Collector, rec); err != nil {
				onEventErr = fmt.Errorf("seq %d: anomaly stream observe: %w", ev.Seq, err)
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := make(chan error, 1)
	go func() { clientDone <- client.Run(ctx) }()

	// Drive the archive through the pipeline.
	for _, sr := range sc.stream {
		pipe.Ingest(sr)
	}
	pipe.Flush(sc.window.To)

	head := broker.Seq()
	if head == 0 {
		fail("nothing published")
	}

	// Wait for the client to survive the chaos and drain to head.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		mu.Lock()
		n := len(seqs)
		caughtUp := n > 0 && seqs[n-1] == head
		evErr := onEventErr
		mu.Unlock()
		if evErr != nil {
			fail("%v", evErr)
		}
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			fail("client never drained to head %d (delivered %d events across %d connections)",
				head, n, inj.Conns())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-clientDone; !errors.Is(err, context.Canceled) {
		fail("client Run returned %v, want context.Canceled", err)
	}

	mu.Lock()
	defer mu.Unlock()

	// The client-side history, reassembled from the chaos-battered wire,
	// yields the batch report bit-identically.
	dets, err := zombie.BuildAnomalyDetectors(nil, zombie.AnomalyConfig{Intervals: sc.intervals})
	if err != nil {
		t.Fatal(err)
	}
	clientRep := zombie.RunAnomalyDetectors(clientStream.Seal(), sc.window, dets, 0)
	if !reflect.DeepEqual(clientRep.ByDetector, sc.batch.ByDetector) {
		fail("client-side counts diverge from batch: %v != %v", clientRep.ByDetector, sc.batch.ByDetector)
	}
	if !reflect.DeepEqual(clientRep.Findings, sc.batch.Findings) {
		fail("client-side findings diverge from batch reference")
	}

	recordFired(inj.Fired())
	t.Logf("seed %d: head=%d conns=%d findings=%v fired=%v",
		seed, head, inj.Conns(), clientRep.ByDetector, inj.Fired())
}
