package zombie_test

import (
	"bytes"
	"io"
	"net/netip"
	"sort"
	"testing"
	"time"

	"zombiescope/internal/eventstore"
	"zombiescope/internal/experiments"
	"zombiescope/internal/mrt"
	"zombiescope/internal/zombie"
)

// storeFromUpdates journals a per-collector archive set into a fresh
// eventstore the way a live broker would: records time-merged across
// collectors (stable within each collector), one KindMRT event per
// record.
func storeFromUpdates(t *testing.T, dir string, updates map[string][]byte) {
	t.Helper()
	type srec struct {
		name string
		rec  mrt.Record
	}
	names := make([]string, 0, len(updates))
	for name := range updates {
		names = append(names, name)
	}
	sort.Strings(names)
	var stream []srec
	for _, name := range names {
		rd := mrt.NewReader(bytes.NewReader(updates[name]))
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, srec{name: name, rec: rec})
		}
	}
	sort.SliceStable(stream, func(i, j int) bool {
		return stream[i].rec.RecordTime().Before(stream[j].rec.RecordTime())
	})

	st, err := eventstore.Open(eventstore.Options{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, sr := range stream {
		buf.Reset()
		if err := mrt.NewWriter(&buf).Write(sr.rec); err != nil {
			t.Fatal(err)
		}
		ev := eventstore.Event{
			Seq:       uint64(i + 1),
			Time:      sr.rec.RecordTime(),
			Collector: sr.name,
			Kind:      eventstore.KindMRT,
			Payload:   append([]byte(nil), buf.Bytes()...),
		}
		if err := st.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildHistoryFromStoreParity: reconstructing history from mmap'd
// store segments must agree with BuildHistory over the raw archives at
// every probe instant — same peers, same per-pair state, same announce
// visibility — including across a close/reopen (read-only) cycle.
func TestBuildHistoryFromStoreParity(t *testing.T) {
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		t.Fatal(err)
	}
	prefixes := make([]netip.Prefix, 0, len(data.Intervals))
	for _, iv := range data.Intervals {
		prefixes = append(prefixes, iv.Prefix)
	}
	track := zombie.NewTrackSet(prefixes)

	mem, err := zombie.BuildHistory(data.Updates, track)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	storeFromUpdates(t, dir, data.Updates)
	st, err := eventstore.Open(eventstore.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored, err := zombie.BuildHistoryFromStore(st, track)
	if err != nil {
		t.Fatal(err)
	}

	memPeers, storePeers := zombie.HistoryPeers(mem), zombie.HistoryPeers(stored)
	if len(memPeers) == 0 {
		t.Fatal("archive history has no peers; scenario too small")
	}
	if len(memPeers) != len(storePeers) {
		t.Fatalf("peer count: store %d, archives %d", len(storePeers), len(memPeers))
	}
	for i := range memPeers {
		if memPeers[i] != storePeers[i] {
			t.Fatalf("peer %d: store %+v, archives %+v", i, storePeers[i], memPeers[i])
		}
	}

	probes := make([]time.Time, 0, 4*len(data.Intervals))
	for _, iv := range data.Intervals {
		probes = append(probes,
			iv.AnnounceAt.Add(time.Minute),
			iv.WithdrawAt.Add(time.Minute),
			iv.WithdrawAt.Add(90*time.Minute),
			iv.End)
	}
	compared := 0
	for _, peer := range memPeers {
		for _, p := range prefixes {
			for _, at := range probes {
				want := mem.StateAt(peer, p, at)
				got := stored.StateAt(peer, p, at)
				if got.Present != want.Present || !got.At.Equal(want.At) ||
					!got.LastEvent.Equal(want.LastEvent) || !got.Path.Equal(want.Path) {
					t.Fatalf("StateAt(%+v, %s, %s):\n store:    %+v\n archives: %+v",
						peer, p, at, got, want)
				}
				if want.Present {
					compared++
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no present states compared; probes never hit a live route")
	}
	for _, iv := range data.Intervals {
		if got, want := stored.SeenAnnounced(iv.Prefix, iv.AnnounceAt, iv.End), mem.SeenAnnounced(iv.Prefix, iv.AnnounceAt, iv.End); got != want {
			t.Fatalf("SeenAnnounced(%s): store %v, archives %v", iv.Prefix, got, want)
		}
	}
}
