package eventstore

import (
	"fmt"
	"testing"
)

// benchEvents pre-builds a cycle of realistic events (MRT-sized payloads,
// a few collectors/peers/prefixes) reused across append iterations.
func benchEvents(n int) []Event {
	return testEvents(n)
}

func BenchmarkStoreAppend(b *testing.B) {
	st, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	evs := benchEvents(1024)
	bytesPer := int64(0)
	for _, ev := range evs {
		bytesPer += int64(len(ev.Payload))
	}
	b.SetBytes(bytesPer / int64(len(evs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evs[i%len(evs)]
		ev.Seq = uint64(i + 1)
		if err := st.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreScan(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	evs := benchEvents(1024)
	seq := uint64(0)
	total := int64(0)
	// ~32 MiB of sealed segments: enough for the mmap path to dominate.
	for total < 32<<20 {
		ev := evs[seq%uint64(len(evs))]
		seq++
		ev.Seq = seq
		if err := st.Append(ev); err != nil {
			b.Fatal(err)
		}
		total += int64(len(ev.Payload)) + eventFixedLen + frameHeaderLen
	}
	if err := st.seal(); err != nil {
		b.Fatal(err)
	}
	segBytes := int64(0)
	for _, info := range st.SegmentInfos() {
		segBytes += info.Bytes
	}
	b.SetBytes(segBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		sum := 0
		if err := st.Scan(Query{}, func(ev Event) error {
			n++
			if len(ev.Payload) > 0 {
				sum += int(ev.Payload[0])
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if uint64(n) != seq {
			b.Fatal(fmt.Sprintf("scan saw %d events, want %d", n, seq))
		}
	}
}

// BenchmarkStoreOpen measures a read-only Open (and Close) of a ~12 MiB
// store of 4 MiB segments: the cost a restart pays before it scans.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	evs := benchEvents(1024)
	seq := uint64(0)
	for total := int64(0); total < 12<<20; {
		ev := evs[seq%uint64(len(evs))]
		seq++
		ev.Seq = seq
		if err := st.Append(ev); err != nil {
			b.Fatal(err)
		}
		total += int64(len(ev.Payload)) + eventFixedLen + frameHeaderLen
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(Options{Dir: dir, ReadOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		if st.LastSeq() != seq {
			b.Fatalf("LastSeq = %d, want %d", st.LastSeq(), seq)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreScanKind(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	evs := benchEvents(1024)
	seq := uint64(0)
	for seq < 200_000 {
		ev := evs[seq%uint64(len(evs))]
		seq++
		ev.Seq = seq
		if err := st.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.seal(); err != nil {
		b.Fatal(err)
	}
	q := Query{Kind: KindMRT}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Scan(q, func(Event) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
