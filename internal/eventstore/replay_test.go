package eventstore

import (
	"net/netip"
	"runtime"
	"testing"
)

// TestReplayActiveWindows: every (from, to] window over a store whose
// active segment interleaves dictionary frames with events (a new prefix
// every third event, a new collector every seventh) equals the matching
// slice of a full Scan. Part of the range is sealed first, so windows
// also straddle the sealed/active boundary.
func TestReplayActiveWindows(t *testing.T) {
	evs := testEvents(48)
	for i := range evs {
		if i%3 == 0 {
			evs[i].Prefixes = append(evs[i].Prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16))
		}
		if i%7 == 0 {
			evs[i].Collector = "rrc" + string(rune('a'+i/7))
		}
	}
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendAll(t, st, evs[:12])
	if err := st.seal(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, evs[12:])

	full := scanAll(t, st, Query{})
	checkEvents(t, full, evs)
	for from := 0; from <= len(evs); from++ {
		for to := from; to <= len(evs); to++ {
			var got []Event
			if err := st.Replay(uint64(from), uint64(to), func(ev Event) error {
				got = append(got, owned(ev))
				return nil
			}); err != nil {
				t.Fatalf("replay (%d, %d]: %v", from, to, err)
			}
			if len(got) != to-from {
				t.Fatalf("replay (%d, %d] gave %d events", from, to, len(got))
			}
			for i := range got {
				if !eventsEqual(got[i], full[from+i]) {
					t.Fatalf("replay (%d, %d] event %d:\ngot  %+v\nwant %+v", from, to, i, got[i], full[from+i])
				}
			}
		}
	}
}

// TestReplayActiveTailReadsTail: a 16-event tail Replay of a 4 MiB active
// segment reads those events, not the segment. A backfill replays the
// active segment in batches, so reading the whole file per call made
// catching up quadratic in the segment size.
func TestReplayActiveTailReadsTail(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const segBytes = 4 << 20
	ev := testEvents(1)[0]
	ev.Payload = make([]byte, 1<<10)
	for seq := uint64(1); ; seq++ {
		ev.Seq = seq
		if err := st.Append(ev); err != nil {
			t.Fatal(err)
		}
		if infos := st.SegmentInfos(); infos[len(infos)-1].Bytes >= segBytes {
			break
		}
	}
	last := st.LastSeq()
	replay := func() int {
		n := 0
		if err := st.Replay(last-16, last, func(Event) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	replay() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := replay()
	runtime.ReadMemStats(&after)
	if n != 16 {
		t.Fatalf("tail replay gave %d events, want 16", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= segBytes/8 {
		t.Fatalf("16-event tail replay of a %d-byte active segment allocated %d bytes", segBytes, alloc)
	}
}
