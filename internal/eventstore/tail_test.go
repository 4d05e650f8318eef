package eventstore

// Tail continuation: a reopened store appends to its newest segment while
// that segment is below the size budget, so restarts and crash recoveries
// do not each leave a small segment behind.

import (
	"net/netip"
	"os"
	"path/filepath"
	"testing"
)

// TestRestartContinuesTail runs open → append → Close-or-Abandon cycles
// at a small segment size. Every segment but the newest must fill to the
// budget, so the count stays within ⌈bytes / SegmentBytes⌉ + 1, and a
// replay must yield exactly the appended events. Every third cycle
// abandons a continued segment and then tears a half-written frame onto
// it, so torn-tail truncation and the index scan run on a segment that
// was reopened.
func TestRestartContinuesTail(t *testing.T) {
	const (
		cycles   = 30
		perCycle = 20
		segBytes = 8 << 10
	)
	dir := t.TempDir()
	m := NewMetrics(nil)
	opts := Options{Dir: dir, SegmentBytes: segBytes, Metrics: m}
	all := testEvents(cycles * perCycle)
	tears := 0
	for c := 0; c < cycles; c++ {
		st, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		from := c * perCycle
		if last := st.LastSeq(); last != uint64(from) {
			t.Fatalf("cycle %d: LastSeq = %d after reopen, want %d", c, last, from)
		}
		appendAll(t, st, all[from:from+perCycle])
		infos := st.SegmentInfos()
		active := infos[len(infos)-1]
		continued := !active.Sealed && active.FirstSeq <= uint64(from)
		switch {
		case c%3 == 0:
			err = st.Close()
		case c%3 == 2 && continued:
			err = st.Abandon()
			tearFrame(t, active.Path)
			tears++
		default:
			err = st.Abandon()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkEvents(t, replayAll(t, st), all)
	infos := st.SegmentInfos()
	total := int64(0)
	for _, info := range infos {
		total += info.Bytes
	}
	if bound := int((total+segBytes-1)/segBytes) + 1; len(infos) > bound {
		t.Fatalf("%d cycles left %d segments (%d bytes), want at most %d", cycles, len(infos), total, bound)
	}
	if tears == 0 || m.truncatedBytes.Value() == 0 {
		t.Fatalf("%d continued segments torn, %d torn bytes truncated; want both non-zero", tears, m.truncatedBytes.Value())
	}
}

// tearFrame appends the start of a frame whose body never made it to
// disk: the state a crash mid-append leaves.
func tearFrame(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{100, 0, 0, 0, fkEvent, 1, 2, 3, 4, 5, 6}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTailContinuationUnderScan: a scan that pinned the tail segment's
// mapping before the first append reopened it keeps reading that mapping
// while the file grows past the size budget and seals, and delivers
// exactly the events of its snapshot.
func TestTailContinuationUnderScan(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 16 << 10}
	all := testEvents(400)
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, all[:100])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	infos := st.SegmentInfos()
	if len(infos) != 1 || infos[0].Bytes >= opts.SegmentBytes {
		t.Fatalf("want one segment below %d bytes, got %+v", opts.SegmentBytes, infos)
	}
	tail := infos[0].Path

	started, resume := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	var got []Event
	go func() {
		errc <- st.Scan(Query{}, func(ev Event) error {
			if ev.Seq == 1 {
				close(started)
				<-resume
			}
			ev.Payload = append([]byte(nil), ev.Payload...)
			ev.Prefixes = append([]netip.Prefix(nil), ev.Prefixes...)
			got = append(got, ev)
			return nil
		})
	}()
	<-started
	appendAll(t, st, all[100:])
	close(resume)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	checkEvents(t, got, all[:100])

	infos = st.SegmentInfos()
	if len(infos) < 2 {
		t.Fatalf("appends never grew the tail past the budget: %d segments", len(infos))
	}
	if infos[0].Path != tail || infos[0].LastSeq <= 100 {
		t.Fatalf("first append did not continue %s: first segment %s holds %d..%d",
			filepath.Base(tail), filepath.Base(infos[0].Path), infos[0].FirstSeq, infos[0].LastSeq)
	}
	checkEvents(t, replayAll(t, st), all)
}
