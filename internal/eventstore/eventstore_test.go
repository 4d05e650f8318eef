package eventstore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testEvents builds a deterministic mixed workload: MRT-style payloads
// with peers and prefixes, peerless JSON events (alerts), multi-prefix
// updates, v4 and v6 — every dictionary shape the store supports.
func testEvents(n int) []Event {
	base := time.Date(2025, 5, 1, 0, 0, 0, 0, time.UTC)
	colls := []string{"rrc00", "rrc01", "route-views2"}
	peers := []struct {
		as   uint32
		addr netip.Addr
	}{
		{25091, netip.MustParseAddr("192.0.2.1")},
		{8298, netip.MustParseAddr("198.51.100.7")},
		{210312, netip.MustParseAddr("2001:db8::1")},
	}
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("93.175.146.0/24"),
		netip.MustParsePrefix("93.175.147.0/24"),
		netip.MustParsePrefix("2a0d:3dc1::/32"),
		netip.MustParsePrefix("2a0d:3dc1:1200::/48"),
	}
	out := make([]Event, n)
	for i := range out {
		ev := Event{
			Seq:  uint64(i + 1),
			Time: base.Add(time.Duration(i) * time.Second),
			Kind: KindMRT,
		}
		ev.Collector = colls[i%len(colls)]
		payload := make([]byte, 20+i%40)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		ev.Payload = payload
		switch i % 4 {
		case 0:
			p := peers[0]
			ev.PeerAS, ev.PeerAddr = p.as, p.addr
			ev.Prefixes = []netip.Prefix{prefixes[(i/4)%len(prefixes)]}
		case 1:
			p := peers[1]
			ev.PeerAS, ev.PeerAddr = p.as, p.addr
			ev.Prefixes = []netip.Prefix{prefixes[0], prefixes[2]}
		case 2:
			// Peerless, prefixless event (e.g. a serialized alert).
			ev.Kind = KindJSON
		case 3:
			p := peers[2]
			ev.PeerAS, ev.PeerAddr = p.as, p.addr
			ev.Prefixes = []netip.Prefix{prefixes[3]}
		}
		out[i] = ev
	}
	return out
}

func eventsEqual(a, b Event) bool {
	if a.Seq != b.Seq || a.Time.UnixNano() != b.Time.UnixNano() ||
		a.Collector != b.Collector || a.PeerAS != b.PeerAS ||
		a.PeerAddr != b.PeerAddr || a.Kind != b.Kind {
		return false
	}
	if len(a.Prefixes) != len(b.Prefixes) || len(a.Payload) != len(b.Payload) {
		return false
	}
	for i := range a.Prefixes {
		if a.Prefixes[i] != b.Prefixes[i] {
			return false
		}
	}
	for i := range a.Payload {
		if a.Payload[i] != b.Payload[i] {
			return false
		}
	}
	return true
}

func appendAll(t testing.TB, st *Store, evs []Event) {
	t.Helper()
	for _, ev := range evs {
		if err := st.Append(ev); err != nil {
			t.Fatalf("append seq %d: %v", ev.Seq, err)
		}
	}
}

func replayAll(t testing.TB, st *Store) []Event {
	t.Helper()
	var got []Event
	from := st.FirstSeq()
	if from > 0 {
		from-- // Replay's range is (from, to]
	}
	if err := st.Replay(from, st.LastSeq(), func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

// scanAll returns the events a Scan of q delivers, copied out of the
// store.
func scanAll(t testing.TB, st *Store, q Query) []Event {
	t.Helper()
	var got []Event
	if err := st.Scan(q, func(ev Event) error {
		ev.Payload = append([]byte(nil), ev.Payload...)
		ev.Prefixes = append([]netip.Prefix(nil), ev.Prefixes...)
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return got
}

func checkEvents(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !eventsEqual(got[i], want[i]) {
			t.Fatalf("event %d mismatch:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	want := testEvents(500)
	// Small segments so the run spans several sealed segments plus an
	// active tail.
	st, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, want)
	if got := replayAll(t, st); true {
		checkEvents(t, got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if first, last := st.FirstSeq(), st.LastSeq(); first != 1 || last != 500 {
		t.Fatalf("FirstSeq/LastSeq = %d/%d, want 1/500", first, last)
	}
	checkEvents(t, replayAll(t, st), want)

	infos0 := st.SegmentInfos()
	if len(infos0) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(infos0))
	}
	next := uint64(1)
	for _, info := range infos0 {
		if !info.Sealed {
			t.Errorf("%s: not sealed after reopen", filepath.Base(info.Path))
		}
		if info.FirstSeq != next {
			t.Errorf("%s: FirstSeq %d, want %d", filepath.Base(info.Path), info.FirstSeq, next)
		}
		next = info.LastSeq + 1
	}
	if next != 501 {
		t.Fatalf("segments cover up to %d, want 501", next)
	}
	// An explicit Seal ends the reopened tail for good: the next append
	// starts a new segment instead of continuing it.
	if err := st.seal(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, testEvents(501)[500:])
	if infos := st.SegmentInfos(); len(infos) != len(infos0)+1 || infos[len(infos)-1].FirstSeq != 501 {
		t.Fatalf("append after Seal: newest segment starts at %d of %d segments, want 501 of %d",
			infos[len(infos)-1].FirstSeq, len(infos), len(infos0)+1)
	}
}

func TestRecoverUnsealedTail(t *testing.T) {
	dir := t.TempDir()
	want := testEvents(100)
	st, err := Open(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, want)
	// Abandon leaves the tail segment unsealed and unsynced, as a crash
	// would; reopen must recover it by scanning.
	if err := st.Abandon(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if last := st.LastSeq(); last != 100 {
		t.Fatalf("LastSeq = %d, want 100", last)
	}
	checkEvents(t, replayAll(t, st), want)
	// Appends must continue seamlessly after recovery.
	more := testEvents(110)[100:]
	appendAll(t, st, more)
	checkEvents(t, replayAll(t, st), testEvents(110))
}

func TestAppendOutOfOrder(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	evs := testEvents(3)
	appendAll(t, st, evs[:2])
	bad := evs[2]
	bad.Seq = 5
	if err := st.Append(bad); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("gap append error = %v, want ErrOutOfOrder", err)
	}
	bad.Seq = 2
	if err := st.Append(bad); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("replayed-seq append error = %v, want ErrOutOfOrder", err)
	}
	appendAll(t, st, evs[2:])
}

func TestReplayRange(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := testEvents(200)
	appendAll(t, st, want)
	var got []Event
	if err := st.Replay(50, 120, func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkEvents(t, got, want[50:120]) // (50, 120] is seqs 51..120
}

func TestScanFilters(t *testing.T) {
	dir := t.TempDir()
	all := testEvents(400)
	st, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendAll(t, st, all)

	naive := func(match func(Event) bool) []Event {
		var out []Event
		for _, ev := range all {
			if match(ev) {
				out = append(out, ev)
			}
		}
		return out
	}
	run := func(name string, q Query, match func(Event) bool) {
		t.Run(name, func(t *testing.T) {
			checkEvents(t, scanAll(t, st, q), naive(match))
		})
	}

	run("all", Query{}, func(Event) bool { return true })
	run("kind", Query{Kind: KindJSON}, func(ev Event) bool { return ev.Kind == KindJSON })
}

func TestScanStopsOnCallbackError(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendAll(t, st, testEvents(50))
	sentinel := errors.New("stop")
	n := 0
	err = st.Scan(Query{}, func(Event) error {
		n++
		if n == 10 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 10 {
		t.Fatalf("scan stopped after %d events with err %v", n, err)
	}
}

func TestRetention(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 2 << 10, RetainBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all := testEvents(2000)
	appendAll(t, st, all)
	first, last := st.FirstSeq(), st.LastSeq()
	if last != 2000 {
		t.Fatalf("LastSeq = %d, want 2000", last)
	}
	if first <= 1 {
		t.Fatalf("FirstSeq = %d; retention should have dropped old segments", first)
	}
	got := replayAll(t, st)
	checkEvents(t, got, all[first-1:])
	if st.metrics.retentionDrops.Value() == 0 {
		t.Fatal("retention drop counter never moved")
	}
	// A replay that starts one sequence below the retained range fails
	// and delivers nothing, rather than skipping the dropped events.
	n := 0
	if err := st.Replay(first-2, first+9, func(Event) error { n++; return nil }); !errors.Is(err, ErrDropped) || n != 0 {
		t.Fatalf("Replay(FirstSeq-2): %d events, err %v; want 0, ErrDropped", n, err)
	}
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := testEvents(100)
	appendAll(t, st, want)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Append(want[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only append error = %v, want ErrReadOnly", err)
	}
	checkEvents(t, replayAll(t, ro), want)
}

func TestReadOnlyOpenOfUnsealedTailDoesNotModify(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := testEvents(50)
	appendAll(t, st, want)
	if err := st.Abandon(); err != nil {
		t.Fatal(err)
	}
	before := dirSnapshot(t, dir)

	ro, err := Open(Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	checkEvents(t, replayAll(t, ro), want)
	ro.Close()

	if after := dirSnapshot(t, dir); !maps.Equal(after, before) {
		t.Fatal("read-only open modified the store")
	}
}

// dirSnapshot maps the name of every file in dir to its contents.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// copyDir copies the files of src into a new directory and returns it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range dirSnapshot(t, src) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// requireOnlySegments fails unless every file in dir is a segment data
// file.
func requireOnlySegments(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != segSuffix {
			t.Errorf("%s: store directory holds a non-segment file", e.Name())
		}
	}
}

// TestStoreWritesOnlySegments: every step of a store's life (appends
// across rotations, Seal, Close, a crash, reopen, tail continuation and
// retention) leaves only segment data files in its directory.
func TestStoreWritesOnlySegments(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics(nil)
	opts := Options{Dir: dir, SegmentBytes: 2 << 10, RetainBytes: 8 << 10, Metrics: m}
	all := testEvents(400)
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, all[:100])
	requireOnlySegments(t, dir)
	if err := st.seal(); err != nil {
		t.Fatal(err)
	}
	requireOnlySegments(t, dir)
	appendAll(t, st, all[100:150])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	requireOnlySegments(t, dir)
	for _, crash := range []bool{true, false} {
		st, err = Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		requireOnlySegments(t, dir)
		from := int(st.LastSeq())
		appendAll(t, st, all[from:from+10])
		for _, info := range st.SegmentInfos() {
			if info.FirstSeq == uint64(from+1) {
				t.Fatalf("append after reopen started a segment at %d instead of continuing the tail", from+1)
			}
		}
		if crash {
			err = st.Abandon()
		} else {
			err = st.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		requireOnlySegments(t, dir)
	}
	st, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, all[170:])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	requireOnlySegments(t, dir)
	if m.retentionDrops.Value() == 0 {
		t.Fatal("retention never dropped a segment")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, testEvents(5))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEvents(6)[5]); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := st.Scan(Query{}, func(Event) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan after close = %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestConcurrentAppendAndScan(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all := testEvents(1000)
	appendAll(t, st, all[:500])
	done := make(chan error, 1)
	go func() {
		for _, ev := range all[500:] {
			if err := st.Append(ev); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Scans during concurrent appends must each see a gap-free prefix.
	for i := 0; i < 20; i++ {
		next := uint64(1)
		if err := st.Scan(Query{}, func(ev Event) error {
			if ev.Seq != next {
				return fmt.Errorf("gap: got seq %d, want %d", ev.Seq, next)
			}
			next++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if next < 501 {
			t.Fatalf("scan saw only %d events", next-1)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkEvents(t, replayAll(t, st), all)
}

func TestSegmentInfoStats(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all := testEvents(100)
	appendAll(t, st, all)
	if err := st.seal(); err != nil {
		t.Fatal(err)
	}
	infos := st.SegmentInfos()
	if len(infos) != 1 {
		t.Fatalf("got %d segments, want 1", len(infos))
	}
	info := infos[0]
	if info.Events != 100 || info.FirstSeq != 1 || info.LastSeq != 100 {
		t.Fatalf("info = %+v", info)
	}
	if info.Collectors != 3 || info.Peers != 3 || info.Prefixes != 4 {
		t.Fatalf("dict cardinalities = %d/%d/%d, want 3/3/4",
			info.Collectors, info.Peers, info.Prefixes)
	}
	if info.MinTime.After(info.MaxTime) || !info.MinTime.Equal(all[0].Time) {
		t.Fatalf("time bounds %v..%v", info.MinTime, info.MaxTime)
	}
}

// TestAppendInvalidPrefixWritesNothing: an append refused for an invalid
// prefix is stored as a gap and must not intern the event's new
// collector, peer or valid prefixes, or the next event that uses them
// would reference dictionary entries the file never got, and a
// crash-recovery scan would truncate the store there.
func TestAppendInvalidPrefixWritesNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(4)
	appendAll(t, st, evs[:1])
	fresh := Event{
		Seq:       2,
		Time:      evs[1].Time,
		Collector: "rrc99",
		PeerAS:    64500,
		PeerAddr:  netip.MustParseAddr("203.0.113.9"),
		Kind:      KindMRT,
		Prefixes:  []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24"), {}},
		Payload:   []byte{1, 2, 3},
	}
	if err := st.Append(fresh); err == nil {
		t.Fatal("append with an invalid prefix succeeded")
	}
	fresh.Seq, fresh.Prefixes = 3, fresh.Prefixes[:1]
	want := []Event{evs[0], gapOf(evs[1]), fresh}
	appendAll(t, st, want[2:])
	if err := st.Abandon(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkEvents(t, replayAll(t, st), want)
}

// TestFailedAppendLeavesGap: a failed append takes its sequence number, so
// the journal goes on after it, and reads report that sequence as a gap —
// an event with the failed event's time and kind and no collector, peer,
// prefixes or payload — that survives a reopen and that kind-filtered
// scans skip. An event the format refuses is written as a gap at once
// (TestAppendInvalidPrefixWritesNothing covers an invalid prefix); one
// whose write fails leaves no bytes and no dictionary entries behind, and
// the next append writes its gap.
func TestFailedAppendLeavesGap(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(6)
	appendAll(t, st, evs[:1])

	many := evs[1]
	many.Prefixes = make([]netip.Prefix, 0x10000)
	for i := range many.Prefixes {
		many.Prefixes[i] = netip.MustParsePrefix("192.0.2.0/24")
	}
	if err := st.Append(many); err == nil {
		t.Fatal("append with 65536 prefixes succeeded")
	}

	// A failed write: the file handle refuses writes and truncation, and
	// the bytes a torn write would leave, more than the next appends
	// write, are past the last frame. The event names a collector and a
	// peer no earlier event did.
	fresh := evs[2]
	fresh.Collector, fresh.PeerAS, fresh.PeerAddr = "rrc99", 64500, netip.MustParseAddr("203.0.113.9")
	restore := failWrites(t, st)
	if err := st.Append(fresh); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	if _, err := restore().WriteAt(bytes.Repeat([]byte{0xde}, 4096), st.w.size); err != nil {
		t.Fatal(err)
	}

	// The next appends go on, the first one naming the failed event's
	// collector and peer; the seal cuts the torn bytes left past them.
	next := evs[3]
	next.Collector, next.PeerAS, next.PeerAddr = fresh.Collector, fresh.PeerAS, fresh.PeerAddr
	appendAll(t, st, []Event{next, evs[4]})
	if err := st.seal(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, evs[5:])
	want := []Event{evs[0], gapOf(evs[1]), gapOf(evs[2]), next, evs[4], evs[5]}
	checkEvents(t, replayAll(t, st), want)
	checkEvents(t, scanAll(t, st, Query{}), want)
	// The gap at seq 2 is of KindMRT and has no payload.
	checkEvents(t, scanAll(t, st, Query{Kind: KindMRT}), []Event{evs[0], next, evs[4], evs[5]})
	if err := st.Abandon(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.LastSeq(); got != 6 {
		t.Fatalf("reopened LastSeq = %d, want 6", got)
	}
	checkEvents(t, replayAll(t, st), want)
	// Collectors: rrc00, the gaps' empty name, rrc99 and rrc01; the
	// refused event's prefix is not among the 3 prefixes.
	infos := st.SegmentInfos()
	if len(infos) != 2 || infos[0].Collectors != 4 || infos[0].Peers != 2 || infos[0].Prefixes != 3 || infos[0].TornBytes != 0 {
		t.Errorf("segments = %+v, want two, the first with 4 collectors, 2 peers, 3 prefixes and no torn bytes", infos)
	}
}

// TestCloseWritesPendingGaps: the gaps of failed writes that no later
// append recorded are written when the store closes, so a reopened store
// ends at the last sequence number its producer handed out. Past maxGaps
// pending, the store takes no further sequence number, also once writes
// succeed again, and ends at the last one it took.
func TestCloseWritesPendingGaps(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(3)
	appendAll(t, st, evs[:1])
	restore := failWrites(t, st)
	for _, ev := range evs[1:] {
		if err := st.Append(ev); err == nil {
			t.Fatalf("append of seq %d through a read-only handle succeeded", ev.Seq)
		}
	}
	restore()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.LastSeq(); got != 3 {
		t.Fatalf("reopened LastSeq = %d, want 3", got)
	}
	checkEvents(t, replayAll(t, st), []Event{evs[0], gapOf(evs[1]), gapOf(evs[2])})

	ev := Event{Seq: 4, Time: evs[2].Time, Kind: KindMRT, Payload: []byte{1}}
	appendAll(t, st, []Event{ev})
	restore = failWrites(t, st)
	for ev.Seq = 5; ev.Seq < 5+maxGaps; ev.Seq++ {
		if err := st.Append(ev); err == nil || errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("append of seq %d through a read-only handle: %v", ev.Seq, err)
		}
	}
	restore()
	if err := st.Append(ev); err == nil {
		t.Fatalf("append of seq %d past %d pending gaps succeeded", ev.Seq, maxGaps)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, want := st.LastSeq(), uint64(4+maxGaps); got != want {
		t.Fatalf("reopened LastSeq = %d, want %d", got, want)
	}
}

// failWrites swaps the active segment's file handle for a read-only one,
// so writes and truncation fail, and returns the function that swaps the
// real handle back and returns it.
func failWrites(t *testing.T, st *Store) (restore func() *os.File) {
	t.Helper()
	real := st.w.f
	ro, err := os.Open(real.Name())
	if err != nil {
		t.Fatal(err)
	}
	st.w.f = ro
	return func() *os.File {
		st.w.f = real
		ro.Close()
		return real
	}
}

// gapOf is the gap a failed append of ev reads back as.
func gapOf(ev Event) Event {
	return Event{Seq: ev.Seq, Time: ev.Time, Kind: ev.Kind}
}

// seal seals the active segment now, as reaching Options.SegmentBytes
// would; the next append starts a new segment.
func (s *Store) seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.tail = nil
	if len(s.gaps) == 0 && (s.w == nil || s.w.count() == 0) {
		return nil
	}
	return s.sealLocked()
}
