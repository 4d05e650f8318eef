package pipeline

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"time"

	"zombiescope/internal/mrt"
)

// minChunkBytes keeps chunks large enough to amortize task scheduling.
const minChunkBytes = 64 << 10

// FileChunk identifies one record-aligned chunk of one archive during a
// fold. Record indexes are exact (the boundary scan counts every record),
// so accumulators can reproduce the sequential reader's global ordering.
type FileChunk struct {
	// Name is the archive (collector) name.
	Name string
	// File is the archive's index in sorted-name order.
	File int
	// Chunk is the chunk's index within the file.
	Chunk int
	// Base is the number of records preceding the chunk within the file.
	Base int
	// FileBase is the number of records preceding the file across the
	// whole archive set, in sorted-name order.
	FileBase int
}

// FileError locates a malformed record inside an archive set. It is the
// error FoldStreams returns, chosen deterministically: the smallest
// (file, record) position, exactly the record the sequential reader would
// have tripped on first.
type FileError struct {
	Name   string
	Record int
	Err    error
}

func (e *FileError) Error() string { return fmt.Sprintf("%s: record %d: %v", e.Name, e.Record, e.Err) }

// Unwrap exposes the underlying decode error.
func (e *FileError) Unwrap() error { return e.Err }

// chunk is a record-aligned byte range of one archive stream.
type chunk struct {
	off, end int
	base     int // records preceding the chunk in the stream
	records  int
}

// posError is a malformed-record error with its record index.
type posError struct {
	record int
	err    error
}

// scanChunks walks the MRT common headers of data (without decoding
// bodies) and splits the stream into at most `parts` record-aligned
// chunks. Framing errors are returned with their record position so they
// can be ranked against decode errors from earlier records.
func scanChunks(data []byte, parts int) ([]chunk, *posError) {
	if parts < 1 {
		parts = 1
	}
	target := len(data) / parts
	if target < minChunkBytes {
		target = minChunkBytes
	}
	var (
		chunks  []chunk
		cur     = chunk{}
		pos     int
		rec     int
		scanErr *posError
	)
	for pos < len(data) {
		if len(data)-pos < mrt.HeaderLen {
			scanErr = &posError{record: rec, err: fmt.Errorf("%w: mid-header", mrt.ErrTruncated)}
			break
		}
		length := binary.BigEndian.Uint32(data[pos+8:])
		if length > mrt.MaxRecordLen {
			scanErr = &posError{record: rec, err: fmt.Errorf("%w: %d bytes", mrt.ErrRecordTooBig, length)}
			break
		}
		end := pos + mrt.HeaderLen + int(length)
		if end > len(data) {
			scanErr = &posError{record: rec, err: fmt.Errorf("%w: record body: %v", mrt.ErrTruncated, io.ErrUnexpectedEOF)}
			break
		}
		pos = end
		rec++
		cur.records++
		if pos-cur.off >= target {
			cur.end = pos
			chunks = append(chunks, cur)
			cur = chunk{off: pos, base: rec}
		}
	}
	if cur.records > 0 {
		cur.end = pos
		chunks = append(chunks, cur)
	}
	return chunks, scanErr
}

// FoldStreams decodes every archive concurrently in record-aligned chunks
// and folds each chunk's records into an accumulator from newAcc. Each
// archive is an ordered list of byte segments (e.g. a collector's rotated
// update files, mmapped individually by archive.OpenMapped) that together
// form one logical MRT stream; records are self-delimiting and never span
// segments, so record indexes, chunk order and error selection are those of
// the concatenated stream, which is never materialized. fn runs once per
// decoded record with the record's exact index within its stream;
// unsupported record types are counted but not passed to fn, mirroring the
// sequential Reader's skip behavior. Accumulators come back grouped per
// file (sorted-name order) with chunks in stream order, so callers can
// merge deterministically. On malformed input the error is the same one a
// sequential scan in name order would have hit first.
//
// fn and newAcc must be safe for concurrent use across chunks; each
// accumulator itself is only touched by one goroutine at a time.
func FoldStreams[A any](e *Engine, streams map[string][][]byte,
	newAcc func(fc FileChunk) A,
	fn func(acc A, fc FileChunk, idx int, rec mrt.Record) error,
) (names []string, accs [][]A, err error) {
	start := time.Now()
	m := e.metrics()
	sp := e.span("pipeline.fold")
	sp.SetArg("files", len(streams))
	defer sp.End()
	names = make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	sort.Strings(names)

	// Stage 1: boundary scan, one unit per segment. Cheap (headers only)
	// but parallel anyway.
	scanSp := sp.Start("pipeline.scan")
	type segRef struct{ file, seg int }
	var segRefs []segRef
	for i, name := range names {
		for j := range streams[name] {
			segRefs = append(segRefs, segRef{file: i, seg: j})
		}
	}
	segChunks := make([][][]chunk, len(names))
	segErrs := make([][]*posError, len(names))
	for i, name := range names {
		segChunks[i] = make([][]chunk, len(streams[name]))
		segErrs[i] = make([]*posError, len(streams[name]))
	}
	e.For(len(segRefs), func(k int) {
		r := segRefs[k]
		segChunks[r.file][r.seg], segErrs[r.file][r.seg] = scanChunks(streams[names[r.file]][r.seg], e.workers())
	})
	// Stitch segments into per-file chunk lists with stream-wide record
	// numbering. A framing error stops the file's stream at its logical
	// position, exactly as a sequential reader of the concatenation would;
	// later segments of that file contribute nothing.
	fileChunks := make([][]chunk, len(names))
	scanErrs := make([]*posError, len(names))
	segOfChunk := make([][]int, len(names)) // chunk index -> segment index
	for i, name := range names {
		recBase := 0
		for j := range streams[name] {
			segStart := recBase
			for _, c := range segChunks[i][j] {
				c.base += segStart // scanChunks numbered within the segment
				fileChunks[i] = append(fileChunks[i], c)
				segOfChunk[i] = append(segOfChunk[i], j)
				recBase += c.records
			}
			if pe := segErrs[i][j]; pe != nil {
				// pe.record counts every record scanned in the segment,
				// including those inside emitted chunks; rebase onto the
				// segment's first stream-wide record index.
				scanErrs[i] = &posError{record: segStart + pe.record, err: pe.err}
				break
			}
		}
	}
	scanSp.End()

	// Stage 2: concurrent chunk decode + fold.
	type task struct {
		fc   FileChunk
		data []byte
	}
	var tasks []task
	fileBase := 0
	for i, name := range names {
		segs := streams[name]
		for j, c := range fileChunks[i] {
			data := segs[segOfChunk[i][j]]
			tasks = append(tasks, task{
				fc:   FileChunk{Name: name, File: i, Chunk: j, Base: c.base, FileBase: fileBase},
				data: data[c.off:c.end],
			})
		}
		for _, c := range fileChunks[i] {
			fileBase += c.records
		}
	}
	accs = make([][]A, len(names))
	for i := range names {
		accs[i] = make([]A, len(fileChunks[i]))
	}
	decodeSp := sp.Start("pipeline.decode")
	decodeSp.SetArg("chunks", len(tasks))
	decodeErrs := make([]*posError, len(tasks))
	borrow := e != nil && e.Borrow
	e.For(len(tasks), func(t int) {
		tk := tasks[t]
		acc := newAcc(tk.fc)
		accs[tk.fc.File][tk.fc.Chunk] = acc
		dec := mrt.Decoder{Borrow: borrow}
		pos, idx := 0, 0
		for pos < len(tk.data) {
			ts, typ, subtype, length := mrt.ParseHeader([mrt.HeaderLen]byte(tk.data[pos : pos+mrt.HeaderLen]))
			body := tk.data[pos+mrt.HeaderLen : pos+mrt.HeaderLen+int(length)]
			pos += mrt.HeaderLen + int(length)
			rec, err := dec.Decode(ts, typ, subtype, body)
			if err == nil && rec != nil {
				err = fn(acc, tk.fc, tk.fc.Base+idx, rec)
			}
			if err != nil {
				m.AddDecodeError()
				decodeErrs[t] = &posError{record: tk.fc.Base + idx, err: err}
				break
			}
			idx++
		}
		m.AddDecoded(idx, len(tk.data))
	})
	decodeSp.End()
	m.AddFiles(len(names))
	m.ObserveDecode(time.Since(start))

	// Deterministic error selection: the smallest (file, record) position,
	// ranking chunk decode errors against the file's framing error.
	for t := range tasks {
		pe := decodeErrs[t]
		if pe == nil {
			continue
		}
		i := tasks[t].fc.File
		if scanErrs[i] == nil || pe.record < scanErrs[i].record {
			scanErrs[i] = pe
		}
	}
	for i, pe := range scanErrs {
		if pe != nil {
			return names, accs, &FileError{Name: names[i], Record: pe.record, Err: pe.err}
		}
	}
	return names, accs, nil
}
