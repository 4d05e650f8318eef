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

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"time"

	"zombiescope/internal/mmapio"
)

const (
	segSuffix = ".seg"
	idxSuffix = ".idx"
	tmpSuffix = ".tmp"

	segMagic      = 0x5A534547 // "ZSEG"
	idxMagic      = 0x5A494458 // "ZIDX"
	formatVersion = 1

	segHeaderLen   = 32
	frameHeaderLen = 9
	eventFixedLen  = 28 // fkEvent body before prefix ids

	fkEvent     = 1
	fkCollector = 2
	fkPeer      = 3
	fkPrefix    = 4
	fkIndex     = 5

	// noPeer marks an event with no BGP peer; noPrefix is the span-index
	// posting slot for events carrying no prefixes (session/state events),
	// so a peer-filtered scan still finds them.
	noPeer   = ^uint32(0)
	noPrefix = ^uint32(0)

	// maxFrameBody bounds a single frame body; anything larger is treated
	// as corruption (the store itself never writes frames near this).
	maxFrameBody = 1 << 30
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	errBadHeader = errors.New("eventstore: bad segment header")
)

func segName(baseSeq uint64) string { return fmt.Sprintf("%016x%s", baseSeq, segSuffix) }

func idxPathFor(segPath string) string {
	return strings.TrimSuffix(segPath, segSuffix) + idxSuffix
}

func frameCRC(kind byte, body []byte) uint32 {
	crc := crc32.Update(0, castagnoli, []byte{kind})
	return crc32.Update(crc, castagnoli, body)
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

func (e rawEvent) nPrefixes() int        { return len(e.ids) / 4 }
func (e rawEvent) prefixID(i int) uint32 { return le.Uint32(e.ids[i*4:]) }

func decodeEventBody(body []byte) (rawEvent, bool) {
	if len(body) < eventFixedLen {
		return rawEvent{}, false
	}
	n := int(le.Uint16(body[26:]))
	if len(body) < eventFixedLen+n*4 {
		return rawEvent{}, false
	}
	return rawEvent{
		seq:     le.Uint64(body[0:]),
		ns:      int64(le.Uint64(body[8:])),
		coll:    le.Uint32(body[16:]),
		peer:    le.Uint32(body[20:]),
		kind:    body[24],
		ids:     body[eventFixedLen : eventFixedLen+n*4],
		payload: body[eventFixedLen+n*4:],
	}, true
}

// segDicts are the per-segment dense dictionaries, populated either by the
// writer (interning) or by a sequential scan (dict frames in order).
type segDicts struct {
	colls   []string
	collIdx map[string]uint32
	peers   []peerKey
	peerIdx map[peerKey]uint32
	prefs   []netip.Prefix
	prefIdx map[netip.Prefix]uint32
}

func newSegDicts() *segDicts {
	return &segDicts{
		collIdx: make(map[string]uint32),
		peerIdx: make(map[peerKey]uint32),
		prefIdx: make(map[netip.Prefix]uint32),
	}
}

// addDictFrame applies one dictionary frame seen during a sequential scan.
// A false return means the frame is inconsistent (treated as corruption).
func (d *segDicts) addDictFrame(kind byte, body []byte) bool {
	switch kind {
	case fkCollector:
		if len(body) < 4 || le.Uint32(body) != uint32(len(d.colls)) {
			return false
		}
		name := string(body[4:])
		d.collIdx[name] = uint32(len(d.colls))
		d.colls = append(d.colls, name)
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
		pk := peerKey{as: le.Uint32(body[4:]), addr: addr}
		d.peerIdx[pk] = uint32(len(d.peers))
		d.peers = append(d.peers, pk)
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
		d.prefIdx[p] = uint32(len(d.prefs))
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

// validEvent checks an event's dictionary references and sequence against
// scan state.
func (d *segDicts) validEvent(e rawEvent) bool {
	if e.coll >= uint32(len(d.colls)) {
		return false
	}
	if e.peer != noPeer && e.peer >= uint32(len(d.peers)) {
		return false
	}
	for i := 0; i < e.nPrefixes(); i++ {
		if e.prefixID(i) >= uint32(len(d.prefs)) {
			return false
		}
	}
	return true
}

// idxBuilder accumulates the span index while events are appended or
// scanned.
type idxBuilder struct {
	firstSeq, lastSeq uint64
	minNS, maxNS      int64
	count             int
	offsets           []uint32
	pairs             map[uint64][]uint32 // peerID<<32|prefixID -> ordinals
	collCounts        []uint64
}

func newIdxBuilder() *idxBuilder {
	return &idxBuilder{pairs: make(map[uint64][]uint32)}
}

func pairID(peer, prefix uint32) uint64 { return uint64(peer)<<32 | uint64(prefix) }

func (b *idxBuilder) addEvent(e rawEvent, off int64) {
	ord := uint32(b.count)
	if b.count == 0 {
		b.firstSeq = e.seq
		b.minNS, b.maxNS = e.ns, e.ns
	} else {
		if e.ns < b.minNS {
			b.minNS = e.ns
		}
		if e.ns > b.maxNS {
			b.maxNS = e.ns
		}
	}
	b.lastSeq = e.seq
	b.count++
	b.offsets = append(b.offsets, uint32(off))
	if n := e.nPrefixes(); n > 0 {
		for i := 0; i < n; i++ {
			k := pairID(e.peer, e.prefixID(i))
			b.pairs[k] = append(b.pairs[k], ord)
		}
	} else {
		k := pairID(e.peer, noPrefix)
		b.pairs[k] = append(b.pairs[k], ord)
	}
	for int(e.coll) >= len(b.collCounts) {
		b.collCounts = append(b.collCounts, 0)
	}
	b.collCounts[e.coll]++
}

// scanFrames walks whole frames in data starting at segHeaderLen, calling
// fn for each. It returns the offset of the first incomplete or corrupt
// frame — len(data) when the file is clean. fn may reject a frame
// (semantic corruption); the walk stops there too.
func scanFrames(data []byte, fn func(kind byte, body []byte, frameOff int64) bool) int64 {
	off := int64(segHeaderLen)
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

// segWriter is the active (appendable) segment.
type segWriter struct {
	path    string
	idxPath string
	f       *os.File
	baseSeq uint64
	size    int64
	created int64

	pendingSync int

	dicts *segDicts
	bld   *idxBuilder

	buf []byte // per-append frame assembly buffer
}

// Convenience accessors mirroring the sealed-segment index.
func (w *segWriter) count() int       { return w.bld.count }
func (w *segWriter) firstSeq() uint64 { return w.bld.firstSeq }

// newSegWriter creates the segment file for baseSeq in dir and writes its
// header.
func newSegWriter(dir string, baseSeq uint64) (*segWriter, error) {
	path := filepath.Join(dir, segName(baseSeq))
	return newSegWriterAt(path, idxPathFor(path), baseSeq)
}

// newSegWriterAt creates a segment writer at an explicit path (compaction
// writes to a temp path and renames into place).
func newSegWriterAt(path, idxPath string, baseSeq uint64) (*segWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	created := time.Now().UnixNano()
	var h [segHeaderLen]byte
	le.PutUint32(h[0:], segMagic)
	le.PutUint16(h[4:], formatVersion)
	le.PutUint64(h[8:], baseSeq)
	le.PutUint64(h[16:], uint64(created))
	le.PutUint32(h[28:], crc32.Checksum(h[:28], castagnoli))
	if _, err := f.Write(h[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	return &segWriter{
		path:    path,
		idxPath: idxPath,
		f:       f,
		baseSeq: baseSeq,
		size:    segHeaderLen,
		created: created,
		dicts:   newSegDicts(),
		bld:     newIdxBuilder(),
	}, nil
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
	if id, ok := w.dicts.collIdx[name]; ok {
		return id
	}
	id := uint32(len(w.dicts.colls))
	w.dicts.colls = append(w.dicts.colls, name)
	w.dicts.collIdx[name] = id
	w.frame(fkCollector, func(b []byte) []byte {
		b = le.AppendUint32(b, id)
		return append(b, name...)
	})
	return id
}

func (w *segWriter) internPeer(pk peerKey) uint32 {
	if id, ok := w.dicts.peerIdx[pk]; ok {
		return id
	}
	id := uint32(len(w.dicts.peers))
	w.dicts.peers = append(w.dicts.peers, pk)
	w.dicts.peerIdx[pk] = id
	w.frame(fkPeer, func(b []byte) []byte {
		b = le.AppendUint32(b, id)
		b = le.AppendUint32(b, pk.as)
		return appendAddr(b, pk.addr)
	})
	return id
}

func (w *segWriter) internPrefix(p netip.Prefix) (uint32, error) {
	if id, ok := w.dicts.prefIdx[p]; ok {
		return id, nil
	}
	if !p.IsValid() {
		return 0, fmt.Errorf("eventstore: invalid prefix %v", p)
	}
	id := uint32(len(w.dicts.prefs))
	w.dicts.prefs = append(w.dicts.prefs, p)
	w.dicts.prefIdx[p] = id
	w.frame(fkPrefix, func(b []byte) []byte {
		b = le.AppendUint32(b, id)
		b = append(b, byte(p.Bits()))
		return appendAddr(b, p.Addr())
	})
	return id, nil
}

// append encodes ev (dictionary frames for any new entries, then the event
// frame) and writes it with a single Write call. It returns the byte count
// written.
func (w *segWriter) append(ev Event) (int, error) {
	if len(ev.Prefixes) > 0xffff {
		return 0, fmt.Errorf("eventstore: %d prefixes in one event", len(ev.Prefixes))
	}
	w.buf = w.buf[:0]
	collID := w.internCollector(ev.Collector)
	peerID := noPeer
	if ev.PeerAS != 0 || ev.PeerAddr.IsValid() {
		peerID = w.internPeer(peerKey{as: ev.PeerAS, addr: ev.PeerAddr})
	}
	// Intern prefixes before assembling the event frame so dictionary
	// frames land ahead of the event that references them.
	ids := make([]uint32, len(ev.Prefixes))
	for i, p := range ev.Prefixes {
		id, err := w.internPrefix(p)
		if err != nil {
			return 0, err
		}
		ids[i] = id
	}
	frameStart := len(w.buf)
	eventOff := w.size + int64(frameStart)
	w.frame(fkEvent, func(b []byte) []byte {
		b = le.AppendUint64(b, ev.Seq)
		b = le.AppendUint64(b, uint64(ev.Time.UnixNano()))
		b = le.AppendUint32(b, collID)
		b = le.AppendUint32(b, peerID)
		b = append(b, ev.Kind, 0)
		b = le.AppendUint16(b, uint16(len(ids)))
		for _, id := range ids {
			b = le.AppendUint32(b, id)
		}
		return append(b, ev.Payload...)
	})
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, fmt.Errorf("eventstore: append %s: %w", filepath.Base(w.path), err)
	}
	// Re-decode the event frame body we just built to feed the index
	// builder through the same path the recovery scanner uses.
	e, ok := decodeEventBody(w.buf[frameStart+frameHeaderLen:])
	if !ok {
		return 0, fmt.Errorf("eventstore: internal error: self-encoded event does not decode")
	}
	w.bld.addEvent(e, eventOff)
	w.size += int64(len(w.buf))
	return len(w.buf), nil
}

// seal fsyncs the data file, writes the index sidecar, and reopens the
// segment for mmap'd reads.
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
	idx := buildIndex(w.bld, w.dicts, w.size)
	if err := writeIndexFile(w.idxPath, w.baseSeq, idx); err != nil {
		return nil, err
	}
	return mapSegment(w.path, w.size, idx, 0)
}

func (w *segWriter) info() SegmentInfo {
	return SegmentInfo{
		Path:            w.path,
		Sealed:          false,
		FirstSeq:        w.bld.firstSeq,
		LastSeq:         w.bld.lastSeq,
		Events:          w.bld.count,
		Bytes:           w.size,
		MinTime:         time.Unix(0, w.bld.minNS),
		MaxTime:         time.Unix(0, w.bld.maxNS),
		Collectors:      len(w.dicts.colls),
		Peers:           len(w.dicts.peers),
		Prefixes:        len(w.dicts.prefs),
		Pairs:           len(w.bld.pairs),
		Postings:        countPostings(w.bld.pairs),
		CollectorCounts: collectorCounts(w.dicts.colls, w.bld.collCounts),
	}
}

func countPostings(pairs map[uint64][]uint32) int {
	n := 0
	for _, ords := range pairs {
		n += len(ords)
	}
	return n
}

func collectorCounts(colls []string, counts []uint64) map[string]uint64 {
	out := make(map[string]uint64, len(colls))
	for i, name := range colls {
		if i < len(counts) {
			out[name] = counts[i]
		}
	}
	return out
}

// segment is one sealed, immutable, mapped segment.
type segment struct {
	path string
	size int64
	idx  *segIndex
	data []byte
	// seg is the refcounted mapping behind data. The store holds one
	// reference and every scan snapshot another, so compaction and
	// retention can drop a segment while scans over it finish.
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

func (s *segment) removeFiles() {
	os.Remove(s.path)
	os.Remove(idxPathFor(s.path))
}

func (s *segment) info() SegmentInfo {
	return SegmentInfo{
		Path:            s.path,
		Sealed:          true,
		FirstSeq:        s.idx.firstSeq,
		LastSeq:         s.idx.lastSeq,
		Events:          len(s.idx.offsets),
		Bytes:           s.size,
		MinTime:         time.Unix(0, s.idx.minNS),
		MaxTime:         time.Unix(0, s.idx.maxNS),
		Collectors:      len(s.idx.colls),
		Peers:           len(s.idx.peers),
		Prefixes:        len(s.idx.prefs),
		Pairs:           len(s.idx.pairs),
		Postings:        s.idx.postings(),
		CollectorCounts: collectorCounts(s.idx.colls, s.idx.collCounts),
		TornBytes:       s.torn,
	}
}

// event decodes the event at ordinal ord. The returned rawEvent aliases
// the mapping.
func (s *segment) event(ord int) (rawEvent, error) {
	off := int64(s.idx.offsets[ord])
	if off+frameHeaderLen > int64(len(s.data)) {
		return rawEvent{}, fmt.Errorf("%w: %s: event %d offset beyond file", ErrCorrupt, filepath.Base(s.path), ord)
	}
	bodyLen := int64(le.Uint32(s.data[off:]))
	if s.data[off+4] != fkEvent || off+frameHeaderLen+bodyLen > int64(len(s.data)) {
		return rawEvent{}, fmt.Errorf("%w: %s: event %d frame invalid", ErrCorrupt, filepath.Base(s.path), ord)
	}
	e, ok := decodeEventBody(s.data[off+frameHeaderLen : off+frameHeaderLen+bodyLen])
	if !ok {
		return rawEvent{}, fmt.Errorf("%w: %s: event %d body invalid", ErrCorrupt, filepath.Base(s.path), ord)
	}
	return e, nil
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

// openSegment validates and (unless readOnly) repairs one segment file:
// bad header -> errBadHeader (caller quarantines the newest segment);
// missing/corrupt/mismatched index sidecar -> rebuild by scanning, with
// torn-tail truncation allowed only on the newest segment; zero events ->
// file removed, (nil, nil).
func openSegment(path string, last, readOnly bool, m *Metrics) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	size := st.Size()
	var h [segHeaderLen]byte
	if size < segHeaderLen {
		return nil, fmt.Errorf("%w: %s: %d bytes", errBadHeader, filepath.Base(path), size)
	}
	if _, err := f.ReadAt(h[:], 0); err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	if le.Uint32(h[0:]) != segMagic || le.Uint16(h[4:]) != formatVersion ||
		le.Uint32(h[28:]) != crc32.Checksum(h[:28], castagnoli) {
		return nil, fmt.Errorf("%w: %s", errBadHeader, filepath.Base(path))
	}
	baseSeq := le.Uint64(h[8:])

	// Fast path: a valid index sidecar that agrees with the data file.
	// Any size disagreement (a compaction crash between renames) discards
	// the sidecar and falls back to a scan of what the data file actually
	// holds — the data file is always the source of truth.
	if idx, err := readIndexFile(idxPathFor(path), baseSeq); err == nil && int64(idx.segSize) == size {
		return mapSegment(path, size, idx, 0)
	}

	// Rebuild by sequential scan.
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("eventstore: read %s: %w", filepath.Base(path), err)
	}
	dicts := newSegDicts()
	bld := newIdxBuilder()
	good := scanFrames(data, func(kind byte, body []byte, off int64) bool {
		if kind == fkEvent {
			e, ok := decodeEventBody(body)
			if !ok || !dicts.validEvent(e) {
				return false
			}
			if e.seq != baseSeq+uint64(bld.count) {
				return false
			}
			bld.addEvent(e, off)
			return true
		}
		return dicts.addDictFrame(kind, body)
	})
	torn := size - good
	if torn > 0 {
		if !last {
			return nil, fmt.Errorf("%w: %s: %d corrupt bytes at offset %d in a non-tail segment",
				ErrCorrupt, filepath.Base(path), torn, good)
		}
		if !readOnly {
			if err := os.Truncate(path, good); err != nil {
				return nil, fmt.Errorf("eventstore: truncate %s: %w", filepath.Base(path), err)
			}
			m.truncatedBytes.Add(torn)
			m.repairs.Inc()
			size = good
			torn = 0
		}
	}
	if bld.count == 0 {
		if !readOnly {
			os.Remove(path)
			os.Remove(idxPathFor(path))
		}
		return nil, nil
	}
	idx := buildIndex(bld, dicts, good)
	if !readOnly {
		if err := writeIndexFile(idxPathFor(path), baseSeq, idx); err != nil {
			return nil, err
		}
		m.repairs.Inc()
	}
	return mapSegment(path, size, idx, torn)
}
