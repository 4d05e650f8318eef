package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zombiescope/internal/mrt"
)

// vectorStream reads a hand-assembled vector file of internal/mrt (hex
// bytes, '#' comments, "[name]" section lines) as the one stream its
// sections form in file order.
func vectorStream(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "mrt", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range strings.Split(string(raw), "\n") {
		line, _, _ = strings.Cut(line, "#")
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "[") {
			continue
		}
		b, err := hex.DecodeString(strings.Join(strings.Fields(line), ""))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, b...)
	}
	return out
}

// recordEnd returns the end of the well-framed record at data[pos:], or
// -1.
func recordEnd(data []byte, pos int) int {
	if len(data)-pos < mrt.HeaderLen {
		return -1
	}
	n := binary.BigEndian.Uint32(data[pos+8:])
	if n > mrt.MaxRecordLen || len(data)-pos-mrt.HeaderLen < int(n) {
		return -1
	}
	return pos + mrt.HeaderLen + int(n)
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// sequential is what mrt.Reader makes of a stream: its records, their
// positions (counting the records it skips), and its error and the
// position of the record it failed on.
type sequential struct {
	recs   []mrt.Record
	pos    []int
	err    error
	errRec int
	framed bool // err is a framing error
}

func readSequential(data []byte) sequential {
	cr := &countingReader{r: bytes.NewReader(data)}
	rd := mrt.NewReader(cr)
	var s sequential
	walked, n := 0, 0 // the records that end by walked, all read by rd
	for {
		rec, err := rd.Next()
		for walked < cr.n {
			end := recordEnd(data, walked)
			if end < 0 || end > cr.n {
				break
			}
			walked, n = end, n+1
		}
		if err == io.EOF {
			return s
		}
		if err != nil {
			// A record that failed to decode was read whole; a framing
			// failure leaves read bytes past the last whole record.
			s.err, s.errRec, s.framed = err, n-1, walked < cr.n
			if s.framed {
				s.errRec = n
			}
			return s
		}
		s.recs, s.pos = append(s.recs, rec), append(s.pos, n-1)
	}
}

// splitRecords cuts data into segments after the n1-th and the
// (n1+n2)-th well-framed record, where there are that many; what follows
// the last cut, broken framing included, is the last segment.
func splitRecords(data []byte, n1, n2 int) [][]byte {
	var segs [][]byte
	start, pos, rec := 0, 0, 0
	for cuts := []int{n1, n1 + n2}; len(cuts) > 0; {
		end := recordEnd(data, pos)
		if end < 0 {
			break
		}
		if pos, rec = end, rec+1; rec == cuts[0] {
			segs, start, cuts = append(segs, data[start:pos]), pos, cuts[1:]
		}
	}
	return append(segs, data[start:])
}

// FuzzFoldStreams holds FoldStreams to mrt.Reader over the concatenation
// of a file's segments: split into 1–3 record-aligned segments, cut small
// so that walks, cuts and late-bound positions all run, at 1, 2 and 4
// workers, the fold must yield the same records in the same order at the
// same stream-wide positions, and fail on the same record with the same
// error. The framing checks live in the decode loop, on untrusted bytes.
func FuzzFoldStreams(f *testing.F) {
	var all []byte
	for _, name := range []string{"rfc4271_bgp4mp.txt", "rfc6396_table_dump_v2.txt", "rfc6793_bgp4mp_as2.txt", "rfc6396_bgp4mp_state_change_as2.txt"} {
		v := vectorStream(f, name)
		all = append(all, v...)
		f.Add(v, uint8(1), uint8(1))
		f.Add(v, uint8(0), uint8(2))
	}
	f.Add(all, uint8(2), uint8(3))
	f.Add(all[:len(all)-3], uint8(1), uint8(4)) // a truncated last record
	tooBig := append(append([]byte(nil), all...), make([]byte, mrt.HeaderLen)...)
	binary.BigEndian.PutUint32(tooBig[len(all)+8:], mrt.MaxRecordLen+1)
	f.Add(tooBig, uint8(3), uint8(3))

	defer func(old int) { minChunkBytes = old }(minChunkBytes)
	minChunkBytes = 1
	f.Fuzz(func(t *testing.T, data []byte, n1, n2 uint8) {
		want := readSequential(data)
		segs := splitRecords(data, int(n1), int(n2))
		type posRec struct {
			fc  FileChunk
			idx int
			rec mrt.Record
		}
		for _, workers := range []int{1, 2, 4} {
			_, accs, err := FoldStreams(&Engine{Workers: workers, Metrics: &Metrics{}}, map[string][][]byte{"rrc00": segs},
				func(FileChunk) *[]posRec { return new([]posRec) },
				func(acc *[]posRec, fc FileChunk, idx int, rec mrt.Record) error {
					*acc = append(*acc, posRec{fc, idx, rec})
					return nil
				})
			var recs []mrt.Record
			var pos []int
			for _, c := range accs[0] {
				for _, r := range *c {
					recs, pos = append(recs, r.rec), append(pos, r.fc.Base()+r.idx)
				}
			}
			if !reflect.DeepEqual(recs, want.recs) || !reflect.DeepEqual(pos, want.pos) {
				t.Fatalf("workers=%d, %d segments: records at %v, sequential reader's at %v", workers, len(segs), pos, want.pos)
			}
			var fe *FileError
			switch {
			case want.err == nil:
				if err != nil {
					t.Fatalf("workers=%d: %v on a stream the reader reads", workers, err)
				}
			case !errors.As(err, &fe) || fe.Record != want.errRec:
				t.Fatalf("workers=%d: %v, the reader fails on record %d: %v", workers, err, want.errRec, want.err)
			case want.framed:
				for _, sentinel := range []error{mrt.ErrTruncated, mrt.ErrRecordTooBig} {
					if errors.Is(fe.Err, sentinel) != errors.Is(want.err, sentinel) {
						t.Fatalf("workers=%d: framing error %v, the reader's %v", workers, fe.Err, want.err)
					}
				}
			case fe.Err.Error() != want.err.Error():
				t.Fatalf("workers=%d: error %v, the reader's %v", workers, fe.Err, want.err)
			}
		}
	})
}
