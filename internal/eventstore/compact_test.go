package eventstore

import (
	"testing"
	"time"
)

// sealInBatches appends evs, forcing a seal every batch so the store
// accumulates many small sealed segments for compaction to chew on.
func sealInBatches(t *testing.T, st *Store, evs []Event, batch int) {
	t.Helper()
	for i, ev := range evs {
		if err := st.Append(ev); err != nil {
			t.Fatal(err)
		}
		if (i+1)%batch == 0 {
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactMergesSmallSegments(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all := testEvents(500)
	sealInBatches(t, st, all, 25)
	before := len(st.SegmentInfos())
	if before < 10 {
		t.Fatalf("want >= 10 segments before compaction, got %d", before)
	}
	merged, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if merged < 10 {
		t.Fatalf("compaction consumed %d segments, want >= 10", merged)
	}
	infos := st.SegmentInfos()
	if len(infos) >= before {
		t.Fatalf("segment count %d not reduced from %d", len(infos), before)
	}
	// Contiguity and full parity after the merge.
	next := uint64(1)
	for _, info := range infos {
		if info.FirstSeq != next {
			t.Fatalf("segment starts at %d, want %d", info.FirstSeq, next)
		}
		next = info.LastSeq + 1
	}
	checkEvents(t, replayAll(t, st), all)
	if st.metrics.compactions.Value() == 0 || st.metrics.compactedSegs.Value() == 0 {
		t.Fatal("compaction counters never moved")
	}
	// Later passes may still merge the merged outputs together; just
	// require convergence.
	for i := 0; i < 5; i++ {
		n, err := st.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return
		}
	}
	t.Fatal("compaction never converged")
}

func TestBackgroundCompaction(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), CompactInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all := testEvents(300)
	sealInBatches(t, st, all, 20)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.metrics.compactions.Value() > 0 {
			checkEvents(t, replayAll(t, st), all)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background compaction never ran")
}

func TestCompactDuringConcurrentScan(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all := testEvents(400)
	sealInBatches(t, st, all, 20)
	// Start a scan that holds segment references, then compact under it;
	// the mapped segments must stay readable until the scan finishes.
	errc := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		n := 0
		errc <- st.Scan(Query{}, func(ev Event) error {
			if n == 0 {
				close(started)
				<-time.After(50 * time.Millisecond) // let compaction swap mid-scan
			}
			n++
			if len(ev.Payload) == 0 {
				return nil
			}
			_ = ev.Payload[0] // touch the mapping
			return nil
		})
	}()
	<-started
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	checkEvents(t, replayAll(t, st), all)
}
