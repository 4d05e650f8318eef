package eventstore

// On-disk format.
//
// A segment file ("%016x.seg", name = base sequence, zero-padded hex so
// lexical order is sequence order) is a 32-byte header followed by CRC-32C
// framed records:
//
//	header:  magic u32 | version u16 | reserved u16 | baseSeq u64 |
//	         createdUnixNano u64 | reserved u32 | crc32c(header[0:28]) u32
//	frame:   bodyLen u32 | kind u8 | crc32c(kind ++ body) u32 | body
//
// Frame kinds interleave dictionary entries with events, so a segment is
// fully self-describing under one sequential scan (the recovery path, the
// active-segment read path, and the fuzz target all share that scanner):
//
//	fkCollector: id u32 | name bytes
//	fkPeer:      id u32 | as u32 | addrLen u8 | addr bytes
//	fkPrefix:    id u32 | bits u8 | addrLen u8 | addr bytes
//	fkEvent:     seq u64 | unixNano u64 | collectorID u32 | peerID u32 |
//	             payloadKind u8 | reserved u8 | nPrefixes u16 |
//	             prefixIDs [n]u32 | payload bytes
//
// Dictionary ids must equal the dictionary's current length (dense,
// append-only); peerID ^0 means "no peer". Event sequence numbers are
// baseSeq + ordinal — contiguity inside a segment is structural.
//
// Every frame carries a CRC over its kind byte and body, so the scanner
// can tell exactly where a torn tail write begins: the first frame that is
// short, oversized, fails its CRC, or decodes inconsistently marks the end
// of good data, and a read-write open truncates the file back to it.
//
// The data file is the only on-disk state of a segment: Open derives each
// segment's index (sequence range, time bounds, event offsets and
// dictionaries) from one scan of its mapping.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"zombiescope/internal/mmapio"
)

const (
	segSuffix = ".seg"

	segMagic      = 0x5A534547 // "ZSEG"
	formatVersion = 1

	segHeaderLen   = 32
	frameHeaderLen = 9
	eventFixedLen  = 28 // fkEvent body before prefix ids

	fkEvent     = 1
	fkCollector = 2
	fkPeer      = 3
	fkPrefix    = 4

	// noPeer marks an event with no BGP peer.
	noPeer = ^uint32(0)

	// maxFrameBody bounds a single frame body; anything larger is treated
	// as corruption (the store itself never writes frames near this).
	maxFrameBody = 1 << 30
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	// kindCRC[k] is the CRC-32C of the one-byte slice {k}: the seed every
	// frame checksum continues from, so frameCRC allocates nothing.
	kindCRC = func() (t [256]uint32) {
		for k := range t {
			t[k] = crc32.Update(0, castagnoli, []byte{byte(k)})
		}
		return t
	}()

	errBadHeader = errors.New("eventstore: bad segment header")
)

func segName(baseSeq uint64) string { return fmt.Sprintf("%016x%s", baseSeq, segSuffix) }

// sealedEvents is how many events the segment named name holds when the
// segment named next follows it: the difference of the base sequences the
// names carry, or 0 when either name does not parse.
func sealedEvents(name, next string) uint64 {
	a, errA := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
	b, errB := strconv.ParseUint(strings.TrimSuffix(next, segSuffix), 16, 64)
	if errA != nil || errB != nil || b <= a {
		return 0
	}
	return b - a
}

func frameCRC(kind byte, body []byte) uint32 {
	return crc32.Update(kindCRC[kind], castagnoli, body)
}

// peerKey is the dictionary identity of a BGP peer.
type peerKey struct {
	as   uint32
	addr netip.Addr
}

// rawEvent is one decoded fkEvent body. ids and payload alias the frame
// body (mmap or scratch buffer).
type rawEvent struct {
	seq     uint64
	ns      int64
	coll    uint32
	peer    uint32
	kind    uint8
	ids     []byte // nPrefixes little-endian u32s
	payload []byte
}

func (e *rawEvent) nPrefixes() int        { return len(e.ids) / 4 }
func (e *rawEvent) prefixID(i int) uint32 { return le.Uint32(e.ids[i*4:]) }

// decode fills e from an fkEvent body in place (a rawEvent is too large
// to copy per frame for free), or reports false when the body is shorter
// than its prefix count says.
func (e *rawEvent) decode(body []byte) bool {
	if len(body) < eventFixedLen {
		return false
	}
	n := int(le.Uint16(body[26:]))
	if len(body) < eventFixedLen+n*4 {
		return false
	}
	e.seq = le.Uint64(body[0:])
	e.ns = int64(le.Uint64(body[8:]))
	e.coll = le.Uint32(body[16:])
	e.peer = le.Uint32(body[20:])
	e.kind = body[24]
	e.ids = body[eventFixedLen : eventFixedLen+n*4]
	e.payload = body[eventFixedLen+n*4:]
	return true
}

// segDicts are the per-segment dense dictionaries, in id order, filled
// either by the writer (interning) or by a sequential scan (dictionary
// frames in order). They are append-only, so a copy of the struct is a
// snapshot whose entries never change.
type segDicts struct {
	colls []string
	peers []peerKey
	prefs []netip.Prefix
}

// resolves reports whether every dictionary id e carries is in range.
func (d *segDicts) resolves(e *rawEvent) bool {
	if int(e.coll) >= len(d.colls) || (e.peer != noPeer && int(e.peer) >= len(d.peers)) {
		return false
	}
	for i := 0; i < e.nPrefixes(); i++ {
		if int(e.prefixID(i)) >= len(d.prefs) {
			return false
		}
	}
	return true
}

// addDictFrame applies one dictionary frame seen during a sequential scan.
// A false return means the frame is inconsistent (treated as corruption).
func (d *segDicts) addDictFrame(kind byte, body []byte) bool {
	switch kind {
	case fkCollector:
		if len(body) < 4 || le.Uint32(body) != uint32(len(d.colls)) {
			return false
		}
		d.colls = append(d.colls, string(body[4:]))
	case fkPeer:
		if len(body) < 9 {
			return false
		}
		if le.Uint32(body) != uint32(len(d.peers)) {
			return false
		}
		addr, ok := decodeAddr(body[8], body[9:])
		if !ok {
			return false
		}
		d.peers = append(d.peers, peerKey{as: le.Uint32(body[4:]), addr: addr})
	case fkPrefix:
		if len(body) < 6 {
			return false
		}
		if le.Uint32(body) != uint32(len(d.prefs)) {
			return false
		}
		addr, ok := decodeAddr(body[5], body[6:])
		if !ok || !addr.IsValid() {
			return false
		}
		p := netip.PrefixFrom(addr, int(body[4]))
		if !p.IsValid() {
			return false
		}
		d.prefs = append(d.prefs, p)
	default:
		return false
	}
	return true
}

// decodeAddr decodes an addrLen-prefixed address; length 0 is the invalid
// (absent) address and the byte count must match exactly.
func decodeAddr(addrLen byte, b []byte) (netip.Addr, bool) {
	if int(addrLen) != len(b) {
		return netip.Addr{}, false
	}
	if addrLen == 0 {
		return netip.Addr{}, true
	}
	addr, ok := netip.AddrFromSlice(b)
	return addr, ok
}

// scanFrames walks whole frames in data starting at offset start, calling
// fn for each. It returns the offset of the first incomplete or corrupt
// frame — len(data) when the file is clean. fn may reject a frame
// (semantic corruption); the walk stops there too.
func scanFrames(data []byte, start int64, fn func(kind byte, body []byte, frameOff int64) bool) int64 {
	off := start
	n := int64(len(data))
	for off+frameHeaderLen <= n {
		bodyLen := int64(le.Uint32(data[off:]))
		if bodyLen > maxFrameBody || off+frameHeaderLen+bodyLen > n {
			return off
		}
		kind := data[off+4]
		crc := le.Uint32(data[off+5:])
		body := data[off+frameHeaderLen : off+frameHeaderLen+bodyLen]
		if frameCRC(kind, body) != crc {
			return off
		}
		if !fn(kind, body, off) {
			return off
		}
		off += frameHeaderLen + bodyLen
	}
	return off
}

// segIndex is what reads by sequence need of a segment, derived from its
// data file: event ordinal i holds sequence number firstSeq+i at
// offsets[i].
type segIndex struct {
	idxBuilder
	segDicts
}

// idxBuilder accumulates the sequence range, time bounds and event
// offsets while events are appended or scanned.
type idxBuilder struct {
	firstSeq, lastSeq uint64
	minNS, maxNS      int64
	offsets           []uint32
}

func (b *idxBuilder) addEvent(seq uint64, ns, off int64) {
	if len(b.offsets) == 0 {
		b.firstSeq = seq
		b.minNS, b.maxNS = ns, ns
	}
	b.minNS, b.maxNS = min(b.minNS, ns), max(b.maxNS, ns)
	b.lastSeq = seq
	b.offsets = append(b.offsets, uint32(off))
}

// buildIndex seals accumulated builder state into a segIndex.
func buildIndex(b *idxBuilder, d segDicts) *segIndex {
	return &segIndex{idxBuilder: *b, segDicts: d}
}

// scanIndex derives the index of the segment data whose header names
// baseSeq, and returns it with the offset where good data ends. The scan
// stops at the first frame that is short, fails its CRC, breaks the
// dictionary order, is not event baseSeq+ordinal, or names an id beyond
// the dictionaries. The offset table starts at capacity events, so a
// sealed segment's table is built at its final length.
func scanIndex(data []byte, baseSeq uint64, events int) (*segIndex, int64) {
	var d segDicts
	b := idxBuilder{offsets: make([]uint32, 0, events)}
	var e rawEvent
	good := scanFrames(data, segHeaderLen, func(kind byte, body []byte, off int64) bool {
		if kind != fkEvent {
			return d.addDictFrame(kind, body)
		}
		if !e.decode(body) || e.seq != baseSeq+uint64(len(b.offsets)) || !d.resolves(&e) {
			return false
		}
		b.addEvent(e.seq, e.ns, off)
		return true
	})
	return buildIndex(&b, d), good
}

// segWriter is the active (appendable) segment.
type segWriter struct {
	path string
	f    *os.File
	size int64

	pendingSync int

	dicts segDicts
	// collIdx, peerIdx and prefIdx map each dictionary entry to its id.
	collIdx map[string]uint32
	peerIdx map[peerKey]uint32
	prefIdx map[netip.Prefix]uint32
	bld     idxBuilder

	buf []byte   // per-append frame assembly buffer
	ids []uint32 // per-append prefix ids
}

// Convenience accessors mirroring the sealed-segment index.
func (w *segWriter) count() int       { return len(w.bld.offsets) }
func (w *segWriter) firstSeq() uint64 { return w.bld.firstSeq }

// newSegWriter creates the segment file for baseSeq in dir and writes its
// header.
func newSegWriter(dir string, baseSeq uint64) (*segWriter, error) {
	path := filepath.Join(dir, segName(baseSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	var h [segHeaderLen]byte
	le.PutUint32(h[0:], segMagic)
	le.PutUint16(h[4:], formatVersion)
	le.PutUint64(h[8:], baseSeq)
	le.PutUint64(h[16:], uint64(time.Now().UnixNano()))
	le.PutUint32(h[28:], crc32.Checksum(h[:28], castagnoli))
	if _, err := f.Write(h[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	return startWriter(path, f, segHeaderLen, segIndex{}), nil
}

// reopenSegWriter continues a sealed segment: its data file reopens for
// appending, and the offset table, time bounds and dictionaries start
// from its index. The writer only appends past the index's lengths, so
// scans still reading the segment never see its writes.
func reopenSegWriter(seg *segment) (*segWriter, error) {
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	return startWriter(seg.path, f, seg.size, *seg.idx), nil
}

// startWriter returns the writer appending to f at size, starting from
// idx and the lookup maps of its dictionaries.
func startWriter(path string, f *os.File, size int64, idx segIndex) *segWriter {
	d := idx.segDicts
	w := &segWriter{
		path:    path,
		f:       f,
		size:    size,
		dicts:   d,
		collIdx: make(map[string]uint32, len(d.colls)),
		peerIdx: make(map[peerKey]uint32, len(d.peers)),
		prefIdx: make(map[netip.Prefix]uint32, len(d.prefs)),
		bld:     idx.idxBuilder,
	}
	for id, name := range d.colls {
		w.collIdx[name] = uint32(id)
	}
	for id, pk := range d.peers {
		w.peerIdx[pk] = uint32(id)
	}
	for id, p := range d.prefs {
		w.prefIdx[p] = uint32(id)
	}
	return w
}

// frame appends one frame (header + body) to w.buf; build appends the body
// bytes and returns the extended slice.
func (w *segWriter) frame(kind byte, build func(b []byte) []byte) {
	start := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0, kind, 0, 0, 0, 0)
	bodyStart := len(w.buf)
	w.buf = build(w.buf)
	body := w.buf[bodyStart:]
	le.PutUint32(w.buf[start:], uint32(len(body)))
	le.PutUint32(w.buf[start+5:], frameCRC(kind, body))
}

func appendAddr(b []byte, addr netip.Addr) []byte {
	if !addr.IsValid() {
		return append(b, 0)
	}
	raw := addr.AsSlice()
	b = append(b, byte(len(raw)))
	return append(b, raw...)
}

func (w *segWriter) internCollector(name string) uint32 {
	if id, ok := w.collIdx[name]; ok {
		return id
	}
	id := uint32(len(w.dicts.colls))
	w.dicts.colls = append(w.dicts.colls, name)
	w.collIdx[name] = id
	w.frame(fkCollector, func(b []byte) []byte {
		b = le.AppendUint32(b, id)
		return append(b, name...)
	})
	return id
}

func (w *segWriter) internPeer(pk peerKey) uint32 {
	if id, ok := w.peerIdx[pk]; ok {
		return id
	}
	id := uint32(len(w.dicts.peers))
	w.dicts.peers = append(w.dicts.peers, pk)
	w.peerIdx[pk] = id
	w.frame(fkPeer, func(b []byte) []byte {
		b = le.AppendUint32(b, id)
		b = le.AppendUint32(b, pk.as)
		return appendAddr(b, pk.addr)
	})
	return id
}

func (w *segWriter) internPrefix(p netip.Prefix) uint32 {
	if id, ok := w.prefIdx[p]; ok {
		return id
	}
	id := uint32(len(w.dicts.prefs))
	w.dicts.prefs = append(w.dicts.prefs, p)
	w.prefIdx[p] = id
	w.frame(fkPrefix, func(b []byte) []byte {
		b = le.AppendUint32(b, id)
		b = append(b, byte(p.Bits()))
		return appendAddr(b, p.Addr())
	})
	return id
}

// append encodes ev (dictionary frames for any new entries, then the event
// frame) and writes it with a single Write call. It returns the byte count
// written.
func (w *segWriter) append(ev Event) (int, error) {
	if len(ev.Prefixes) > 0xffff {
		return 0, fmt.Errorf("eventstore: %d prefixes in one event", len(ev.Prefixes))
	}
	// Reject before interning anything: a dictionary entry interned for a
	// refused event would never reach the file.
	for _, p := range ev.Prefixes {
		if !p.IsValid() {
			return 0, fmt.Errorf("eventstore: invalid prefix %v", p)
		}
	}
	w.buf = w.buf[:0]
	collID := w.internCollector(ev.Collector)
	peerID := noPeer
	if ev.PeerAS != 0 || ev.PeerAddr.IsValid() {
		peerID = w.internPeer(peerKey{as: ev.PeerAS, addr: ev.PeerAddr})
	}
	// Intern prefixes before assembling the event frame so dictionary
	// frames land ahead of the event that references them.
	w.ids = w.ids[:0]
	for _, p := range ev.Prefixes {
		w.ids = append(w.ids, w.internPrefix(p))
	}
	ns := ev.Time.UnixNano()
	eventOff := w.size + int64(len(w.buf))
	w.frame(fkEvent, func(b []byte) []byte {
		b = le.AppendUint64(b, ev.Seq)
		b = le.AppendUint64(b, uint64(ns))
		b = le.AppendUint32(b, collID)
		b = le.AppendUint32(b, peerID)
		b = append(b, ev.Kind, 0)
		b = le.AppendUint16(b, uint16(len(w.ids)))
		for _, id := range w.ids {
			b = le.AppendUint32(b, id)
		}
		return append(b, ev.Payload...)
	})
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, fmt.Errorf("eventstore: append %s: %w", filepath.Base(w.path), err)
	}
	w.bld.addEvent(ev.Seq, ns, eventOff)
	w.size += int64(len(w.buf))
	return len(w.buf), nil
}

// seal fsyncs the data file and reopens the segment for mmap'd reads.
func (w *segWriter) seal(m *Metrics) (*segment, error) {
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return nil, fmt.Errorf("eventstore: fsync %s: %w", filepath.Base(w.path), err)
	}
	m.fsyncSeconds.Observe(time.Since(start).Seconds())
	if err := w.f.Close(); err != nil {
		return nil, fmt.Errorf("eventstore: close %s: %w", filepath.Base(w.path), err)
	}
	return mapSegment(w.path, w.size, buildIndex(&w.bld, w.dicts), 0)
}

func (w *segWriter) info() SegmentInfo {
	return SegmentInfo{
		Path:       w.path,
		Sealed:     false,
		FirstSeq:   w.bld.firstSeq,
		LastSeq:    w.bld.lastSeq,
		Events:     w.count(),
		Bytes:      w.size,
		MinTime:    time.Unix(0, w.bld.minNS),
		MaxTime:    time.Unix(0, w.bld.maxNS),
		Collectors: len(w.dicts.colls),
		Peers:      len(w.dicts.peers),
		Prefixes:   len(w.dicts.prefs),
	}
}

// segment is one sealed, immutable, mapped segment.
type segment struct {
	path string
	size int64
	idx  *segIndex
	data []byte
	// seg is the refcounted mapping behind data. The store holds one
	// reference and every scan snapshot another, so retention, or a
	// restarted store continuing its tail, can drop a segment while scans
	// over it finish.
	seg  *mmapio.Mapping
	torn int64 // unrecovered tail bytes (read-only opens)
}

func (s *segment) release() {
	if s.seg != nil {
		s.seg.Release()
	}
}

func (s *segment) acquire() {
	if s.seg != nil {
		s.seg.Acquire()
	}
}

func (s *segment) info() SegmentInfo {
	return SegmentInfo{
		Path:       s.path,
		Sealed:     true,
		FirstSeq:   s.idx.firstSeq,
		LastSeq:    s.idx.lastSeq,
		Events:     len(s.idx.offsets),
		Bytes:      s.size,
		MinTime:    time.Unix(0, s.idx.minNS),
		MaxTime:    time.Unix(0, s.idx.maxNS),
		Collectors: len(s.idx.colls),
		Peers:      len(s.idx.peers),
		Prefixes:   len(s.idx.prefs),
		TornBytes:  s.torn,
	}
}

// mapSegment opens path and maps [0, size) for reading. torn carries
// through to SegmentInfo for read-only opens.
func mapSegment(path string, size int64, idx *segIndex, torn int64) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	mp, err := mmapio.MapFile(f, size)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("eventstore: map %s: %w", filepath.Base(path), err)
	}
	return &segment{path: path, size: size, idx: idx, data: mp.Data, seg: mp, torn: torn}, nil
}

// openSegment maps one segment file and derives its index by scanning the
// mapping, repairing the file unless readOnly: a bad header is
// errBadHeader (the caller quarantines the newest segment); corrupt bytes
// are truncated on the newest segment (last) and ErrCorrupt anywhere else;
// a segment of zero events is removed and yields (nil, nil). events is how
// many events the segment should hold (0 when unknown), capped by how many
// minimal event frames the mapping has room for.
func openSegment(path string, last, readOnly bool, events uint64, m *Metrics) (*segment, error) {
	mp, err := mmapio.Open(path)
	if err != nil {
		return nil, fmt.Errorf("eventstore: map %s: %w", filepath.Base(path), err)
	}
	data := mp.Data
	if len(data) < segHeaderLen || le.Uint32(data[0:]) != segMagic || le.Uint16(data[4:]) != formatVersion ||
		le.Uint32(data[28:]) != crc32.Checksum(data[:28], castagnoli) {
		mp.Release()
		return nil, fmt.Errorf("%w: %s: %d bytes", errBadHeader, filepath.Base(path), len(data))
	}
	events = min(events, uint64(len(data)-segHeaderLen)/(frameHeaderLen+eventFixedLen))
	idx, good := scanIndex(data, le.Uint64(data[8:]), int(events))
	torn := int64(len(data)) - good
	switch {
	case torn > 0 && !last:
		mp.Release()
		return nil, fmt.Errorf("%w: %s: %d corrupt bytes at offset %d in a non-tail segment",
			ErrCorrupt, filepath.Base(path), torn, good)
	case len(idx.offsets) == 0:
		mp.Release()
		if !readOnly {
			if torn > 0 {
				m.truncatedBytes.Add(torn)
				m.repairs.Inc()
			}
			os.Remove(path)
		}
		return nil, nil
	case torn > 0 && !readOnly:
		// The mapping covers the bytes the truncation drops: map again.
		mp.Release()
		if err := os.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("eventstore: truncate %s: %w", filepath.Base(path), err)
		}
		m.truncatedBytes.Add(torn)
		m.repairs.Inc()
		return mapSegment(path, good, idx, 0)
	}
	return &segment{path: path, size: int64(len(data)), idx: idx, data: data, seg: mp, torn: torn}, nil
}
