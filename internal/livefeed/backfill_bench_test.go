package livefeed

import (
	"context"
	"testing"

	"zombiescope/internal/eventstore"
	"zombiescope/internal/experiments"
)

// BenchmarkBackfill times one journal range turned into catch-up frames,
// per event, for each frame format: a from-start subscriber taking that
// format is caught up over a journal of the author scenario (seed 42,
// scale 16: every update and state record plus the alerts) and each
// frame is dequeued as the server's write loop dequeues it. One op is one
// event; the subscriber is renewed whenever it reaches the head. The
// journal was written by a run with 4 MiB segments and reopened, as a
// restarted daemon's is, and the serving broker keeps no replay window,
// so every frame comes from the journal. BENCH_backfill.json fences the
// allocations per event.
func BenchmarkBackfill(b *testing.B) {
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		b.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	opts := eventstore.Options{Dir: dir, SegmentBytes: 4 << 20}
	st, err := eventstore.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	writer := NewBroker(Config{Journal: &StoreJournal{Store: st}})
	if err := NewPipeline(writer, data.Intervals, 0).Replay(context.Background(), stream, data.Config.TrackUntil, 0); err != nil {
		b.Fatal(err)
	}
	writer.Close()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	opts.ReadOnly = true
	if st, err = eventstore.Open(opts); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	head := st.LastSeq()
	br := NewBroker(Config{Journal: &StoreJournal{Store: st}, StartSeq: head, ReplaySize: -1})
	defer br.Close()

	for _, format := range []string{FormatJSON, FormatMRT} {
		b.Run(format, func(b *testing.B) {
			var sub *Subscriber
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sub == nil {
					if sub, _, err = br.SubscribeFormat(Filter{}, PolicyDropOldest, format, 0, true); err != nil {
						b.Fatal(err)
					}
				}
				fr, ok := sub.TryNextFrame()
				if !ok {
					b.Fatalf("catch-up ended before the head %d", head)
				}
				_ = fr.Wire()
				seq := fr.Seq()
				fr.Release()
				if seq == head {
					sub.Close()
					sub = nil
				}
			}
			b.StopTimer()
			if sub != nil {
				sub.Close()
			}
		})
	}
}
