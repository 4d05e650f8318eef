package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/mrt/mrttest"
)

// makeUpdateArchive writes n BGP4MP records (announce/withdraw updates with
// a periodic state change) and returns the encoded file.
func makeUpdateArchive(t *testing.T, n int, seed byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	wr := mrt.NewWriter(&buf)
	base := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	prefix := netip.MustParsePrefix("93.175.146.0/24")
	peerIP := netip.AddrFrom4([4]byte{192, 0, 2, seed})
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * time.Second)
		if i%17 == 16 {
			if err := wr.Write(&mrt.BGP4MPStateChange{
				Timestamp: ts,
				PeerAS:    bgp.ASN(64500 + uint32(seed)),
				LocalAS:   12654,
				AFI:       bgp.AFIIPv4,
				PeerIP:    peerIP,
				LocalIP:   netip.AddrFrom4([4]byte{192, 0, 2, 250}),
				OldState:  mrt.StateEstablished,
				NewState:  mrt.StateIdle,
			}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		u := &bgp.Update{}
		if i%3 == 2 {
			u.Withdrawn = []netip.Prefix{prefix}
		} else {
			u.NLRI = []netip.Prefix{prefix}
			u.Attrs.ASPath = bgp.NewASPath(bgp.ASN(64500+uint32(seed)), 3333, 12654)
		}
		data, err := u.AppendWireFormat(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := wr.Write(&mrt.BGP4MPMessage{
			Timestamp: ts,
			PeerAS:    bgp.ASN(64500 + uint32(seed)),
			LocalAS:   12654,
			AFI:       bgp.AFIIPv4,
			PeerIP:    peerIP,
			LocalIP:   netip.AddrFrom4([4]byte{192, 0, 2, 250}),
			Data:      data,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		e := &Engine{Workers: workers}
		const n = 1000
		var counts [n]atomic.Int32
		e.For(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForInlinePreservesOrder(t *testing.T) {
	e := &Engine{Workers: 1}
	var got []int
	e.For(5, func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("inline For order = %v", got)
	}
}

// cutSegment cuts data into parts as FoldStreams does, running the parts'
// walks in order, and returns the chunks that exist.
func cutSegment(data []byte, parts int) []*chunk {
	var out []*chunk
	ps := make([]chunk, parts)
	linkParts(ps, data, 0)
	for k := range ps {
		c := &ps[k]
		if c.walk(); !c.absent {
			out = append(out, c)
		}
	}
	return out
}

func TestScanChunksCoversStreamExactly(t *testing.T) {
	data := makeUpdateArchive(t, 5000, 1)
	seq, err := mrttest.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 7} {
		chunks := cutSegment(data, parts)
		pos, records, walked := 0, 0, 0
		for i, c := range chunks {
			if c.off != pos {
				t.Fatalf("parts=%d: chunk %d starts at %d, want %d", parts, i, c.off, pos)
			}
			// The chunk must itself be a valid record-aligned stream.
			recs, err := mrttest.ReadAll(bytes.NewReader(data[c.off:c.end]))
			if err != nil {
				t.Fatalf("parts=%d: chunk %d not record-aligned: %v", parts, i, err)
			}
			pos = c.end
			records += len(recs)
			walked += c.walked
		}
		if pos != len(data) {
			t.Fatalf("parts=%d: chunks end at %d, want %d", parts, pos, len(data))
		}
		// Here every record is supported, so the records of the chunks
		// must be those of the sequential decode.
		if records != len(seq) {
			t.Fatalf("parts=%d: %d records in the chunks, sequential decoded %d", parts, records, len(seq))
		}
		// The walks stop at the last cut: the last chunk is read once.
		if last := chunks[len(chunks)-1]; walked != last.off || last.walked != 0 {
			t.Errorf("parts=%d: walks read %d bytes ahead (the last chunk %d), want the %d before the last cut", parts, walked, last.walked, last.off)
		}
	}
}

// makeDumpArchive writes snapshots RIB dump snapshots, each a
// PEER_INDEX_TABLE and then ribs RIB records indexing it, and returns the
// encoded file.
func makeDumpArchive(t *testing.T, snapshots, ribs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	wr := mrt.NewWriter(&buf)
	base := time.Date(2024, 6, 10, 0, 0, 0, 0, time.UTC)
	table := &mrt.PeerIndexTable{CollectorID: netip.MustParseAddr("193.0.4.28"), ViewName: "rrc00"}
	for i := 0; i < 4; i++ {
		table.Peers = append(table.Peers, mrt.PeerEntry{
			BGPID: netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}),
			Addr:  netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}),
			AS:    bgp.ASN(64500 + i),
		})
	}
	for s := 0; s < snapshots; s++ {
		at := base.Add(time.Duration(s) * 8 * time.Hour)
		table.Timestamp = at
		if err := wr.Write(table); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ribs; r++ {
			rib := &mrt.RIB{Timestamp: at, Sequence: uint32(r),
				Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{93, 175, byte(r), 0}), 24)}
			for peer := range table.Peers {
				rib.Entries = append(rib.Entries, mrt.RIBEntry{PeerIndex: uint16(peer), OriginatedTime: at,
					Attrs: bgp.PathAttributes{HasOrigin: true, ASPath: bgp.NewASPath(bgp.ASN(64500+peer), 3333, 12654)}})
			}
			if err := wr.Write(rib); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestScanChunksCutsDumpsAtTables pins the chunk geometry of both stream
// kinds. An update stream is cut at the first record boundary at or past
// each part's share of the bytes. Once a dump has shown a PEER_INDEX_TABLE,
// it is cut only just before the first table there, so every chunk after
// the first begins with the table its RIB records index; a dump of one
// snapshot is one chunk.
func TestScanChunksCutsDumpsAtTables(t *testing.T) {
	isTable := func(data []byte, off int) bool {
		return binary.BigEndian.Uint16(data[off+4:]) == mrt.TypeTableDumpV2 &&
			binary.BigEndian.Uint16(data[off+6:]) == mrt.SubtypePeerIndexTable
	}
	for _, tc := range []struct {
		name string
		data []byte
		dump bool
	}{
		{"updates", makeUpdateArchive(t, 5000, 1), false},
		{"dump", makeDumpArchive(t, 300, 6), true},
		{"one snapshot", makeDumpArchive(t, 1, 2000), true},
	} {
		for _, parts := range []int{1, 2, 7} {
			chunks := cutSegment(tc.data, parts)
			pos := 0
			for i, c := range chunks {
				if c.off != pos {
					t.Fatalf("%s, parts=%d: chunk %d starts at %d, want %d", tc.name, parts, i, c.off, pos)
				}
				pos = c.end
				if tc.dump && !isTable(tc.data, c.off) {
					t.Errorf("%s, parts=%d: chunk %d does not begin with a PEER_INDEX_TABLE", tc.name, parts, i)
				}
				last := c.off // the chunk's last cut point after its start: a record, or a table in a dump
				for off := c.off; off < c.end; off += mrt.HeaderLen + int(binary.BigEndian.Uint32(tc.data[off+8:])) {
					if off > c.off && (!tc.dump || isTable(tc.data, off)) {
						last = off
					}
				}
				if i == len(chunks)-1 {
					continue
				}
				if c.end < c.cutAt || last > c.off && last >= c.cutAt {
					t.Errorf("%s, parts=%d: chunk %d spans [%d,%d), last cut point %d: not the first at or past %d",
						tc.name, parts, i, c.off, c.end, last, c.cutAt)
				}
			}
			if pos != len(tc.data) {
				t.Fatalf("%s, parts=%d: chunks end at %d, want %d", tc.name, parts, pos, len(tc.data))
			}
			if tc.name == "one snapshot" && len(chunks) != 1 {
				t.Errorf("one snapshot, parts=%d: %d chunks, want 1", parts, len(chunks))
			}
			if parts == 7 && tc.name != "one snapshot" && len(chunks) < 4 {
				t.Errorf("%s, parts=7: %d chunks, want the stream spread", tc.name, len(chunks))
			}
		}
	}
}

// oneSegment presents whole in-memory archives as one-segment streams.
func oneSegment(archives map[string][]byte) map[string][][]byte {
	streams := make(map[string][][]byte, len(archives))
	for name, data := range archives {
		streams[name] = [][]byte{data}
	}
	return streams
}

// newCollector and collect make an owning fold that keeps every record of
// its chunk, in stream order.
func newCollector(FileChunk) *[]mrt.Record { return new([]mrt.Record) }

func collect(acc *[]mrt.Record, _ FileChunk, _ int, rec mrt.Record) error {
	*acc = append(*acc, rec)
	return nil
}

func TestDecodeArchivesMatchesSequentialReader(t *testing.T) {
	archives := map[string][]byte{
		"rrc01": makeUpdateArchive(t, 3000, 1),
		"rrc10": makeUpdateArchive(t, 40, 2),
		"rrc21": makeUpdateArchive(t, 1200, 3),
	}
	want := make(map[string][]mrt.Record)
	for name, data := range archives {
		recs, err := mrttest.ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want[name] = recs
	}
	for _, workers := range []int{1, 2, 8} {
		e := &Engine{Workers: workers, Metrics: NewMetrics(nil)}
		names, accs, err := FoldStreams(e, oneSegment(archives), newCollector, collect)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(names) != len(archives) {
			t.Fatalf("workers=%d: %d files", workers, len(names))
		}
		prev := ""
		for i, name := range names {
			if name <= prev {
				t.Fatalf("workers=%d: files not in sorted order: %q after %q", workers, name, prev)
			}
			prev = name
			var recs []mrt.Record
			for _, chunk := range accs[i] {
				recs = append(recs, *chunk...)
			}
			if !reflect.DeepEqual(recs, want[name]) {
				t.Fatalf("workers=%d: %s records diverge from sequential reader", workers, name)
			}
		}
		c, _ := e.Metrics.Registry().Values()
		if c["pipeline_files_decoded_total"] != int64(len(archives)) {
			t.Errorf("workers=%d: files decoded = %d", workers, c["pipeline_files_decoded_total"])
		}
		wantRecords := int64(0)
		for _, recs := range want {
			wantRecords += int64(len(recs))
		}
		if c["pipeline_records_decoded_total"] != wantRecords {
			t.Errorf("workers=%d: records decoded = %d, want %d", workers, c["pipeline_records_decoded_total"], wantRecords)
		}
	}
}

// sequentialFirstError reproduces what a name-ordered sequential scan over
// the archives would report: the file and record index of the first error.
func sequentialFirstError(archives map[string][]byte) (string, int, error) {
	names := make([]string, 0, len(archives))
	for name := range archives {
		names = append(names, name)
	}
	// Insertion sort; tiny n.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		rd := mrt.NewReader(bytes.NewReader(archives[name]))
		rec := 0
		for {
			_, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return name, rec, err
			}
			rec++
		}
	}
	return "", 0, nil
}

func TestFoldRecordsErrorMatchesSequential(t *testing.T) {
	clean := makeUpdateArchive(t, 600, 1)
	truncatedHeader := append(append([]byte(nil), clean...), clean[:7]...)
	truncatedBody := clean[:len(clean)-5]
	tooBig := append([]byte(nil), clean...)
	// Append a header whose length field exceeds MaxRecordLen.
	hdr := make([]byte, mrt.HeaderLen)
	binary.BigEndian.PutUint32(hdr[8:], mrt.MaxRecordLen+1)
	tooBig = append(tooBig, hdr...)

	cases := []struct {
		name     string
		archives map[string][]byte
		sentinel error
	}{
		{"truncated header", map[string][]byte{"rrc00": clean, "rrc01": truncatedHeader}, mrt.ErrTruncated},
		{"truncated body", map[string][]byte{"rrc00": truncatedBody, "rrc01": clean}, mrt.ErrTruncated},
		{"oversized record", map[string][]byte{"rrc00": clean, "rrc01": tooBig}, mrt.ErrRecordTooBig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantName, wantRec, wantErr := sequentialFirstError(tc.archives)
			if wantErr == nil {
				t.Fatal("test case is not actually corrupt")
			}
			for _, workers := range []int{1, 4} {
				e := &Engine{Workers: workers, Metrics: &Metrics{}}
				_, _, err := FoldStreams(e, oneSegment(tc.archives), newCollector, collect)
				if err == nil {
					t.Fatalf("workers=%d: no error on corrupt input", workers)
				}
				var fe *FileError
				if !errors.As(err, &fe) {
					t.Fatalf("workers=%d: error %T is not a *FileError", workers, err)
				}
				if fe.Name != wantName {
					t.Errorf("workers=%d: error in %s, sequential scan fails in %s", workers, fe.Name, wantName)
				}
				if fe.Record != wantRec {
					t.Errorf("workers=%d: error at record %d, sequential at %d", workers, fe.Record, wantRec)
				}
				if !errors.Is(err, tc.sentinel) {
					t.Errorf("workers=%d: error %v does not wrap %v", workers, err, tc.sentinel)
				}
				if !errors.Is(wantErr, tc.sentinel) {
					t.Errorf("sequential error %v does not wrap %v", wantErr, tc.sentinel)
				}
			}
		})
	}
}

func TestFoldRecordsCallbackErrorPosition(t *testing.T) {
	// A callback error must be ranked like a decode error: smallest
	// (file, record) wins even when a later chunk fails first in wall time.
	// Record i of makeUpdateArchive is stamped i seconds in, which names
	// it while positions are still chunk-relative.
	archives := map[string][]byte{
		"rrc00": makeUpdateArchive(t, 2000, 1),
		"rrc01": makeUpdateArchive(t, 2000, 2),
	}
	t0 := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		e := &Engine{Workers: workers, Metrics: &Metrics{}}
		_, _, err := FoldStreams(e, oneSegment(archives), newCollector,
			func(_ *[]mrt.Record, fc FileChunk, _ int, rec mrt.Record) error {
				i := int(rec.RecordTime().Sub(t0) / time.Second)
				if fc.Name == "rrc01" && i >= 100 {
					return fmt.Errorf("%w at %d", sentinel, i)
				}
				if fc.Name == "rrc00" && i >= 700 {
					return fmt.Errorf("%w at %d", sentinel, i)
				}
				return nil
			})
		var fe *FileError
		if !errors.As(err, &fe) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fe.Name != "rrc00" || fe.Record != 700 {
			t.Errorf("workers=%d: first error reported at %s record %d, want rrc00 record 700",
				workers, fe.Name, fe.Record)
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: sentinel lost: %v", workers, err)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics(nil)
	m.AddFiles(2)
	m.AddDecoded(10, 1024)
	m.AddSharded(7)
	m.AddMerged(4)
	m.AddIntervals(3)
	m.AddDecodeError()
	m.ObserveDecode(2 * time.Millisecond)

	c, h := m.Registry().Values()
	want := map[string]int64{
		"pipeline_files_decoded_total": 2, "pipeline_chunks_decoded_total": 1,
		"pipeline_records_decoded_total": 10, "pipeline_bytes_decoded_total": 1024,
		"pipeline_events_sharded_total": 7, "pipeline_shards_merged_total": 4,
		"pipeline_intervals_evaluated_total": 3, "pipeline_decode_errors_total": 1,
	}
	for k, v := range want {
		if c[k] != v {
			t.Errorf("%s = %d, want %d", k, c[k], v)
		}
	}
	if s := h[`pipeline_stage_seconds{stage="decode"}`]; s.Count != 1 || s.Sum < 0.002 {
		t.Errorf("decode stage = %+v, want one observation of >= 2ms", s)
	}
	for _, stage := range []string{"build", "merge", "detect"} {
		if s, ok := h[`pipeline_stage_seconds{stage="`+stage+`"}`]; !ok || s.Count != 0 {
			t.Errorf("%s stage = %+v (present %v), want an empty series", stage, s, ok)
		}
	}
	// The zero value is an inert sink: Engine users pass &Metrics{} to
	// opt out of accounting.
	var zero Metrics
	zero.AddDecoded(1, 1)
	zero.ObserveBuild(time.Second)
	if zero.Registry() != nil {
		t.Error("zero-value Metrics has a registry")
	}
}
