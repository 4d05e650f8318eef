package pipeline

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"zombiescope/internal/mrt"
)

// minChunkBytes keeps chunks large enough to amortize task scheduling; a
// variable so a test can cut small inputs.
var minChunkBytes = 64 << 10

// chunksPerWorker is c in the cut target total/(c·W): a segment no larger
// is never cut, so a call of many small segments is never walked ahead of
// its decode, and a larger one is cut into parts of about half the target,
// enough chunks that a worker finishing early finds another.
const chunksPerWorker = 2

// FileChunk identifies one record-aligned chunk of one archive during a
// fold. Its record positions are bound late: fn sees each record's index
// within the chunk, and the chunk's stream-wide bases, Base and FileBase,
// are known once FoldStreams has returned — the decode counts the records,
// no walk ahead of it does.
type FileChunk struct {
	// Name is the archive (collector) name.
	Name string
	c    *chunk
}

// Base returns the number of records preceding the chunk within its
// file. It is valid once FoldStreams has returned without error; on error,
// only the bases of the chunks up to the one holding the error are bound.
func (fc FileChunk) Base() int { return fc.c.base }

// FileBase returns the number of records preceding the chunk's file
// across the whole archive set, in sorted-name order. It is valid when
// Base is.
func (fc FileChunk) FileBase() int { return fc.c.fileBase }

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

// chunk is one record-aligned byte range of a segment: a task of the
// fold. A segment's first chunk starts at 0; every later one starts where
// the walk of the chunk before it cut, and waits for that walk.
type chunk struct {
	seg              []byte
	share            int            // len(seg) over the segment's part count
	file, part, task int            // the file's index, the part's within its segment, the task's in hand-out order
	cutAt            int            // where the chunk's walk looks for its end, unless it is its segment's last part
	ready            sync.WaitGroup // done once off, tables and absent are set; a first part never waits
	next             *chunk         // the segment's next part

	off, end int
	tables   bool // a PEER_INDEX_TABLE precedes off in the segment
	absent   bool // the walks before ended the segment: there is no such chunk
	walked   int  // bytes the chunk's walk read ahead of its decode

	records        int // records decoded (up to the error, if any)
	err            *posError
	base, fileBase int // bound after the fold
}

// posError is a malformed-record error with its record index.
type posError struct {
	record int
	err    error
}

// frame checks the framing of the record at data[pos:] — the checks
// mrt.Reader makes on a stream — and returns the offset just past it.
func frame(data []byte, pos int) (int, error) {
	if len(data)-pos < mrt.HeaderLen {
		return 0, fmt.Errorf("%w: mid-header", mrt.ErrTruncated)
	}
	length := binary.BigEndian.Uint32(data[pos+8:])
	if length > mrt.MaxRecordLen {
		return 0, fmt.Errorf("%w: %d bytes", mrt.ErrRecordTooBig, length)
	}
	end := pos + mrt.HeaderLen + int(length)
	if end > len(data) {
		return 0, fmt.Errorf("%w: record body: %v", mrt.ErrTruncated, io.ErrUnexpectedEOF)
	}
	return end, nil
}

// cut walks the record headers of seg from off, a record boundary, to the
// first cut point at or past at, and returns it with whether a
// PEER_INDEX_TABLE precedes it (tables says whether one precedes off).
// An update stream is cut at the first record boundary there. A RIB dump
// is self-contained per chunk: once a table has been seen, the stream is
// cut only just before a later table, so every chunk after the first
// starts with the table its RIB records index (RFC 6396 §4.3: RIB entries
// index the table that precedes them). Its chunks are whole snapshots,
// and a dump of one snapshot is one chunk.
//
// cut returns len(seg) when no cut point follows: the segment ends first,
// or its framing breaks, which the chunk's decode then reports at its
// record.
func cut(seg []byte, off, at int, tables bool) (int, bool) {
	for pos := off; pos < len(seg); {
		end, err := frame(seg, pos)
		if err != nil {
			break
		}
		if binary.BigEndian.Uint16(seg[pos+4:]) == mrt.TypeTableDumpV2 && binary.BigEndian.Uint16(seg[pos+6:]) == mrt.SubtypePeerIndexTable {
			if tables && pos >= at && pos > off {
				return pos, true
			}
			tables = true
		}
		if pos = end; !tables && pos >= at && pos < len(seg) {
			return pos, false
		}
	}
	return len(seg), tables
}

// linkParts makes parts the parts of a segment of file, each but the last
// to be cut at the first cut point at or past its share of the segment's
// bytes, linked so each walk publishes the next part.
func linkParts(parts []chunk, seg []byte, file int) {
	for k := range parts {
		parts[k] = chunk{seg: seg, share: len(seg) / len(parts), file: file, part: k}
		if k > 0 {
			parts[k].ready.Add(1)
			parts[k-1].next, parts[k-1].cutAt = &parts[k], len(seg)*k/len(parts)
		}
	}
}

// walk finds where the chunk ends and publishes the next part of its
// segment: its start, or that the segment has ended.
func (c *chunk) walk() {
	c.end = len(c.seg)
	if c.next == nil {
		return
	}
	n := c.next
	if c.absent {
		n.absent = true
	} else {
		end, tables := cut(c.seg, c.off, c.cutAt, c.tables)
		c.walked = end - c.off
		if end < len(c.seg) {
			c.end, n.off, n.tables = end, end, tables
		} else {
			n.absent = true
		}
	}
	n.ready.Done()
}

// FoldStreams decodes every archive concurrently in record-aligned chunks
// and folds each chunk's records into an accumulator from newAcc. Each
// archive is an ordered list of byte segments (e.g. a collector's rotated
// update files, mmapped individually by archive.OpenMapped) that together
// form one logical MRT stream; records are self-delimiting and never span
// segments, so record positions, chunk order and error selection are
// those of the concatenated stream, which is never materialized.
//
// Each byte is decoded in one walk wherever the worker count allows it.
// The call's cut target is its total size over chunksPerWorker·Workers
// (at least minChunkBytes). A segment no larger is one chunk that nothing
// reads ahead of its decode, and with one worker no segment is cut at all.
// A larger segment is cut into parts of about half the target, at even
// offsets: the task of part k walks the headers of its own range to its
// cut (see cut), publishes part k+1 and then decodes its range, so the
// walk stops at the last cut and no barrier separates cutting from
// decoding. The largest parts are handed out first.
//
// fn runs once per decoded record with the record's index within its
// chunk; the chunk's bases (FileChunk.Base, FileChunk.FileBase) turn it
// into a stream-wide position once the fold is done. Unsupported record
// types are counted but not passed to fn, mirroring the sequential
// Reader's skip behavior. Accumulators come back grouped per file
// (sorted-name order) with chunks in stream order, so callers can merge
// deterministically. On malformed input the error is the same one a
// sequential scan in name order would have hit first, and a file's
// chunks after the one holding its first error are left out.
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
	defer sp.End()
	names = make([]string, 0, len(streams))
	total := 0
	for name, segs := range streams {
		names = append(names, name)
		for _, seg := range segs {
			total += len(seg)
		}
	}
	sort.Strings(names)
	sp.SetArg("files", len(streams))
	sp.SetArg("bytes", total)

	// Plan the parts: a segment larger than the target is cut into parts
	// of about half the target, fine enough to balance over the workers,
	// and part k ends at the first cut point at or past k+1 parts' worth
	// of its bytes. The parts lie in stream order, file by file.
	w := e.workers()
	target := max(total/(chunksPerWorker*w), minChunkBytes)
	partsOf := func(seg []byte) int {
		if w > 1 && len(seg) > target {
			return (4*len(seg) + target) / (2 * target) // len(seg) over target/2, rounded
		}
		return min(len(seg), 1)
	}
	n := 0
	for _, segs := range streams {
		for _, seg := range segs {
			n += partsOf(seg)
		}
	}
	all := make([]chunk, n)
	fileEnd := make([]int, len(names)) // file i's parts end at all[fileEnd[i]]
	n = 0
	for i, name := range names {
		for _, seg := range streams[name] {
			p := partsOf(seg)
			linkParts(all[n:n+p], seg, i)
			n += p
		}
		fileEnd[i] = n
	}
	tasks := make([]*chunk, n)
	for k := range all {
		tasks[k] = &all[k]
	}
	// With several workers, hand the largest parts out first, so that the
	// last tasks to finish are small ones. A segment's parts are equal and
	// keep their order, so a part is handed out after the part whose walk
	// it waits for, which some worker is then running. The first W tasks
	// start together, so they are first parts, which wait for nothing. One
	// worker decodes in stream order.
	if w > 1 {
		slices.SortStableFunc(tasks, func(a, b *chunk) int { return cmp.Compare(b.share, a.share) })
		for i, head := 0, 0; i < len(tasks) && head < w; i++ {
			if c := tasks[i]; c.part == 0 {
				copy(tasks[head+1:i+1], tasks[head:i])
				tasks[head] = c
				head++
			}
		}
	}
	for t, c := range tasks {
		c.task = t
	}

	// Walk, publish, decode. A task waits only for the walk of the part
	// before it, which was handed out earlier, so some worker is on it.
	decodeSp := sp.Start("pipeline.decode")
	taskAccs := make([]A, len(tasks))
	borrow := e != nil && e.Borrow
	e.For(len(tasks), func(t int) {
		c := tasks[t]
		c.ready.Wait()
		c.walk()
		if c.absent {
			return
		}
		fc := FileChunk{Name: names[c.file], c: c}
		acc := newAcc(fc)
		taskAccs[t] = acc
		dec := mrt.Decoder{Borrow: borrow}
		data := c.seg[c.off:c.end]
		idx := 0
		var err error
		for pos := 0; pos < len(data); idx++ {
			var end int
			if end, err = frame(data, pos); err != nil {
				break
			}
			ts, typ, subtype, _ := mrt.ParseHeader([mrt.HeaderLen]byte(data[pos:]))
			body := data[pos+mrt.HeaderLen : end]
			pos = end
			var rec mrt.Record
			if rec, err = dec.Decode(ts, typ, subtype, body); err == nil && rec != nil {
				err = fn(acc, fc, idx, rec)
			}
			if err != nil {
				break
			}
		}
		if err != nil {
			m.AddDecodeError()
			c.err = &posError{record: idx, err: err}
		}
		c.records = idx
		m.AddDecoded(idx, len(data))
	})
	chunks, walked := 0, 0
	for _, c := range tasks {
		if !c.absent {
			chunks++
		}
		walked += c.walked
	}
	decodeSp.SetArg("chunks", chunks)
	decodeSp.End()
	sp.SetArg("chunks", chunks)
	sp.SetArg("walked_bytes", walked)
	m.AddFiles(len(names))
	m.ObserveDecode(time.Since(start))

	// Bind the positions, file by file in stream order, and pick the error
	// at the smallest (file, record) position. A file's chunks after its
	// first error are left out: their positions are unknown.
	accs = make([][]A, len(names))
	fileBase, from := 0, 0
	for i, end := range fileEnd {
		base := 0
		for k := from; k < end; k++ {
			c := &all[k]
			if c.absent {
				continue
			}
			c.base, c.fileBase = base, fileBase
			accs[i] = append(accs[i], taskAccs[c.task])
			base += c.records
			if c.err != nil {
				if err == nil {
					err = &FileError{Name: names[i], Record: c.base + c.err.record, Err: c.err.err}
				}
				break
			}
		}
		fileBase += base
		from = end
	}
	return names, accs, err
}
