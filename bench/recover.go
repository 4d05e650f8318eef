package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"zombiescope/internal/eventstore"
	"zombiescope/internal/zombie"
)

// recoverSegmentBytes makes the set-up journal roll several segments, so
// a restart opens sealed, indexed segments and not one active file.
const recoverSegmentBytes = 4 << 20

// recoverWorkload is a daemon restart: open the journal a previous run
// left, rebuild the stream detector from it, rebuild a batch history from
// it, and backfill one from-start subscriber to head over loopback. It
// uses the eventstore and livefeed layers the other way round from
// live-drain: reads where that one writes.
type recoverWorkload struct {
	e      *env
	stride int
	in     *liveInput
	dir    string

	records    int    // update records journaled
	events     uint64 // journal head: records plus alerts
	wantAlerts int
	want       string // reference digest of the detection report

	backfill time.Duration // the latest restart's backfill time
}

func (w *recoverWorkload) setUp() (err error) {
	if w.in, err = generateLive(w.e, w.stride); err != nil {
		return err
	}
	w.dir = filepath.Join(w.e.dir, "journal")
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	r, err := openRig(w.dir, recoverSegmentBytes, w.in.intervals)
	if err != nil {
		return err
	}
	if err := r.pipe.Replay(context.Background(), w.in.stream, w.in.flushAt, 0); err != nil {
		r.close()
		return err
	}
	w.events = r.broker.Seq()
	return r.close()
}

func (w *recoverWorkload) reference() error {
	rep, err := (&zombie.Detector{Threshold: threshold}).Detect(w.in.updates, w.in.intervals)
	if err != nil {
		return err
	}
	if n := len(rep.Outbreaks); n < 30 {
		return fmt.Errorf("reference has %d outbreaks, want at least 30", n)
	}
	d := newDigester()
	reportDigest(d, rep)
	w.want = d.sum()
	w.wantAlerts = 0
	for _, ob := range rep.Outbreaks {
		w.wantAlerts += len(ob.Routes)
	}
	w.records = streamable(w.in.stream)
	if got := uint64(w.records + w.wantAlerts); got != w.events {
		return fmt.Errorf("journal holds %d events, want %d records + %d alerts", w.events, w.records, w.wantAlerts)
	}
	return nil
}

// restart runs the recovery sequence, under spans when root is non-nil.
func (w *recoverWorkload) restart(root *span) (passResult, error) {
	start := time.Now()
	var (
		r   *rig
		n   int
		h   *zombie.History
		rep *zombie.Report
		end time.Time
	)
	err := root.run([]step{
		{"eventstore.open", func() (err error) { r, err = openRig(w.dir, recoverSegmentBytes, w.in.intervals); return }},
		{"livefeed.recover", func() (err error) { n, err = r.pipe.Recover(r.store); return }},
		{"zombie.history_store", func() (err error) {
			h, err = zombie.BuildHistoryFromStore(r.store, zombie.NewTrackSet(intervalPrefixes(w.in.intervals)))
			return
		}},
		{"zombie.detect", func() error {
			rep = (&zombie.Detector{Threshold: threshold, Parallelism: w.e.workers}).DetectFromHistory(h, w.in.intervals)
			return nil
		}},
		{"livefeed.backfill", func() error {
			began := time.Now()
			if err := r.subscribe(1, true, nil); err != nil {
				return err
			}
			end = r.awaitHead()
			w.backfill = end.Sub(began)
			return nil
		}},
	})
	if err != nil {
		if r != nil {
			r.close()
		}
		return passResult{}, err
	}
	res := passResult{wall: end.Sub(start), items: n + int(w.events)}
	res.attempted, res.failed, res.note = r.verify(deliveryCheck{wantEvents: w.events, wantAlerts: w.wantAlerts})
	res.attempted += 2
	if n != w.records {
		res.failed++
		res.note = fmt.Sprintf("recovered %d records, journal holds %d", n, w.records)
	}
	d := newDigester()
	reportDigest(d, rep)
	if got := d.sum(); got != w.want {
		res.failed++
		res.note = fmt.Sprintf("store-recovered report digest %s, reference %s", got[:12], w.want[:12])
	}
	closing := time.Now()
	err = r.close()
	res.wall += time.Since(closing)
	return res, err
}

func (w *recoverWorkload) measure(d time.Duration) (*measurement, error) {
	return closedLoop(d, func() (passResult, error) { return w.restart(nil) })
}

func (w *recoverWorkload) staged(log *spanLog, pass int) error {
	t := w.e.layers
	root := log.root("pass", pass)
	res, err := w.restart(root)
	root.end()
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("staged restart: %s", res.note)
	}
	t.add("livefeed.backfill_events_per_s", float64(w.events)/w.backfill.Seconds())

	// The store's read side alone: one full scan of the journal.
	extras := log.root("extras", pass)
	defer extras.end()
	store, err := eventstore.Open(eventstore.Options{Dir: w.dir, ReadOnly: true})
	if err != nil {
		return err
	}
	defer store.Close()
	var payload int
	d, err := extras.time("eventstore.scan", func() error {
		return store.Scan(eventstore.Query{}, func(ev eventstore.Event) error {
			payload += len(ev.Payload)
			return nil
		})
	})
	if err != nil {
		return err
	}
	var bytes int64
	infos := store.SegmentInfos()
	for _, seg := range infos {
		bytes += seg.Bytes
	}
	t.set("eventstore.bytes", float64(bytes))
	t.set("eventstore.segments", float64(len(infos)))
	t.add("eventstore.scan_mb_per_s", float64(bytes)/(1<<20)/d.Seconds())
	if payload == 0 {
		return fmt.Errorf("scan of %s returned no payload bytes", w.dir)
	}
	return nil
}
