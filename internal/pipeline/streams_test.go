package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// splitAtRecords cuts an MRT stream into segments after the given record
// counts, walking headers so every cut lands on a record boundary.
func splitAtRecords(t *testing.T, data []byte, counts ...int) [][]byte {
	t.Helper()
	var segs [][]byte
	pos, rec := 0, 0
	start := 0
	cut := 0
	for pos < len(data) {
		length := binary.BigEndian.Uint32(data[pos+8:])
		pos += mrt.HeaderLen + int(length)
		rec++
		if cut < len(counts) && rec == counts[cut] {
			segs = append(segs, data[start:pos])
			start = pos
			cut++
		}
	}
	if start < len(data) {
		segs = append(segs, data[start:])
	}
	return segs
}

type foldedRec struct {
	FC  FileChunk
	Idx int // stream-wide once foldAll returns
	TS  int64
}

func foldAll(t *testing.T, e *Engine, streams map[string][][]byte) ([]string, [][][]foldedRec, error) {
	t.Helper()
	names, accs, err := FoldStreams(e, streams,
		func(FileChunk) *[]foldedRec { return new([]foldedRec) },
		func(acc *[]foldedRec, fc FileChunk, idx int, rec mrt.Record) error {
			*acc = append(*acc, foldedRec{FC: fc, Idx: idx, TS: rec.RecordTime().Unix()})
			return nil
		})
	// Positions are bound once the fold has returned: the chunk-relative
	// index plus the chunk's base is the stream-wide one.
	out := make([][][]foldedRec, len(accs))
	for i, chunks := range accs {
		out[i] = make([][]foldedRec, len(chunks))
		for j, c := range chunks {
			if c != nil {
				out[i][j] = *c
				for k := range out[i][j] {
					out[i][j][k].Idx += out[i][j][k].FC.Base()
				}
			}
		}
	}
	return names, out, err
}

func TestFoldStreamsMatchesConcatenated(t *testing.T) {
	a := makeUpdateArchive(t, 3000, 1)
	b := makeUpdateArchive(t, 1700, 2)
	concat := map[string][][]byte{
		"rrc00": {a},
		"rrc01": {b},
	}
	split := map[string][][]byte{
		"rrc00": splitAtRecords(t, a, 400, 1100, 2999), // uneven segments, incl. a 1-record tail
		"rrc01": splitAtRecords(t, b, 850),
	}
	for _, workers := range []int{1, 4} {
		e := &Engine{Workers: workers, Metrics: &Metrics{}}
		wantNames, wantAccs, err := foldAll(t, e, concat)
		if err != nil {
			t.Fatal(err)
		}
		gotNames, gotAccs, err := foldAll(t, e, split)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantNames, gotNames) {
			t.Fatalf("workers=%d: names %v vs %v", workers, gotNames, wantNames)
		}
		// Chunk boundaries differ (segments chunk independently), so
		// compare the flattened per-file record sequences: indexes and
		// timestamps must be identical, in identical order.
		for i := range wantNames {
			var want, got []foldedRec
			for _, c := range wantAccs[i] {
				for _, r := range c {
					r.FC = FileChunk{} // chunk geometry intentionally differs
					want = append(want, r)
				}
			}
			for _, c := range gotAccs[i] {
				for _, r := range c {
					if r.FC.Name != wantNames[i] {
						t.Fatalf("workers=%d: wrong FileChunk identity %+v", workers, r.FC)
					}
					r.FC = FileChunk{}
					got = append(got, r)
				}
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d: %s: segmented fold diverges from concatenated fold", workers, wantNames[i])
			}
		}
	}
}

// TestFoldStreamsChunkBasesAreStreamWide: fn's chunk-relative index plus
// the base the chunk is bound to after the fold numbers the records
// 0…n-1 in stream order, across segments and cuts, at every worker count.
func TestFoldStreamsChunkBasesAreStreamWide(t *testing.T) {
	a := makeUpdateArchive(t, 2000, 3)
	b := makeUpdateArchive(t, 300, 4)
	streams := map[string][][]byte{"rrc00": splitAtRecords(t, a, 700, 1400), "rrc01": {b}}
	for _, workers := range []int{1, 2, 4} {
		_, accs, err := foldAll(t, &Engine{Workers: workers}, streams)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for _, c := range accs[0] {
			for _, r := range c {
				if r.Idx != next {
					t.Fatalf("workers=%d: record index %d, want %d (stream-wide numbering broken)", workers, r.Idx, next)
				}
				next++
			}
		}
		if next != 2000 {
			t.Fatalf("workers=%d: folded %d records, want 2000", workers, next)
		}
		if fc := accs[1][0][0].FC; fc.FileBase() != 2000 || fc.Base() != 0 {
			t.Errorf("workers=%d: the second file's first chunk is bound to (%d, %d), want file base 2000, base 0", workers, fc.FileBase(), fc.Base())
		}
	}
}

func TestFoldStreamsErrorPositionSpansSegments(t *testing.T) {
	a := makeUpdateArchive(t, 900, 1)
	segs := splitAtRecords(t, a, 300, 600)
	// Truncate the middle segment mid-record: the logical stream error
	// position is 300 + the records surviving in segment 1.
	whole := segs[1]
	segs[1] = whole[:len(whole)-5]
	surviving := 0
	pos := 0
	for pos+mrt.HeaderLen <= len(segs[1]) {
		length := binary.BigEndian.Uint32(segs[1][pos+8:])
		if pos+mrt.HeaderLen+int(length) > len(segs[1]) {
			break
		}
		pos += mrt.HeaderLen + int(length)
		surviving++
	}
	for _, workers := range []int{1, 4} {
		e := &Engine{Workers: workers, Metrics: &Metrics{}}
		_, _, err := foldAll(t, e, map[string][][]byte{"rrc00": segs})
		var fe *FileError
		if !errors.As(err, &fe) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fe.Name != "rrc00" || fe.Record != 300+surviving {
			t.Errorf("workers=%d: error at %s record %d, want rrc00 record %d",
				workers, fe.Name, fe.Record, 300+surviving)
		}
		if !errors.Is(err, mrt.ErrTruncated) {
			t.Errorf("workers=%d: %v does not wrap ErrTruncated", workers, err)
		}
	}
}

// corruptUpdate breaks the BGP marker of record rec of an archive from
// makeUpdateArchive (a BGP4MP message, not a state change), so the record
// frames and decodes as MRT but its UPDATE fails to decode.
func corruptUpdate(t *testing.T, data []byte, rec int) []byte {
	t.Helper()
	if rec%17 == 16 {
		t.Fatalf("record %d is a state change", rec)
	}
	data = slices.Clone(data)
	pos := 0
	for range rec {
		pos += mrt.HeaderLen + int(binary.BigEndian.Uint32(data[pos+8:]))
	}
	body := data[pos+mrt.HeaderLen : pos+mrt.HeaderLen+int(binary.BigEndian.Uint32(data[pos+8:]))]
	i := bytes.Index(body, bytes.Repeat([]byte{0xff}, bgp.MarkerLen))
	if i < 0 {
		t.Fatalf("record %d carries no BGP marker", rec)
	}
	body[i] = 0
	return data
}

// TestFoldStreamsFirstFaultWins: over a 3-segment file cut into parts (at
// 2 and 4 workers) or not (at 1), with a framing fault in the tail of
// segment 1 that no walk reads ahead of its decode, a BGP decode fault
// earlier in segment 1 and one in segment 2, the fold reports the
// earliest fault present, at its exact stream-wide record — although
// positions are bound only after the fold, and later segments decode
// concurrently.
func TestFoldStreamsFirstFaultWins(t *testing.T) {
	seg0, seg1, seg2 := makeUpdateArchive(t, 1000, 1), makeUpdateArchive(t, 3000, 2), makeUpdateArchive(t, 1000, 3)
	decode1, decode2 := corruptUpdate(t, seg1, 1500), corruptUpdate(t, seg2, 100)
	truncate := func(seg []byte) []byte { return seg[:len(seg)-5] } // record 2999 loses its tail
	for _, tc := range []struct {
		name       string
		segs       [][]byte
		record     int
		decodeFail bool
	}{
		{"all three faults", [][]byte{seg0, truncate(decode1), decode2}, 1000 + 1500, true},
		{"framing in segment 1, decode in segment 2", [][]byte{seg0, truncate(seg1), decode2}, 1000 + 2999, false},
		{"decode in segment 2", [][]byte{seg0, seg1, decode2}, 1000 + 3000 + 100, true},
		{"decode and framing in segment 1", [][]byte{seg0, truncate(corruptUpdate(t, seg1, 51)), seg2}, 1000 + 51, true},
	} {
		for _, workers := range []int{1, 2, 4} {
			e := &Engine{Workers: workers, Metrics: &Metrics{}}
			_, accs, err := FoldStreams(e, map[string][][]byte{"rrc00": tc.segs},
				func(FileChunk) *bgp.Scratch { return new(bgp.Scratch) },
				func(s *bgp.Scratch, _ FileChunk, _ int, rec mrt.Record) error {
					if m, ok := rec.(*mrt.BGP4MPMessage); ok {
						_, err := s.DecodeUpdate(m.Data, m.DecodeFlags())
						return err
					}
					return nil
				})
			var fe *FileError
			if !errors.As(err, &fe) || fe.Name != "rrc00" || fe.Record != tc.record {
				t.Errorf("%s, workers=%d: %v, want rrc00 record %d", tc.name, workers, err, tc.record)
				continue
			}
			if tc.decodeFail != errors.Is(err, bgp.ErrBadMarker) || !tc.decodeFail && !errors.Is(err, mrt.ErrTruncated) {
				t.Errorf("%s, workers=%d: error %v is not the fault at record %d", tc.name, workers, err, tc.record)
			}
			if workers > 1 && len(accs[0]) < 2 {
				t.Errorf("%s, workers=%d: %d chunks before the fault, want the segments cut", tc.name, workers, len(accs[0]))
			}
		}
	}
}
