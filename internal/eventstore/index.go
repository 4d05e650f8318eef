package eventstore

// The index sidecar ("%016x.idx", same base name as its segment) makes a
// sealed segment open in O(1): it holds what Open needs to serve reads by
// sequence without scanning the data file. It is pure derived state: any
// disagreement with the data file — missing, torn, CRC-failed, of another
// sidecar version, describing a different size (a crash after appends
// continued the segment), or naming a sequence range the frames at its first
// and last offsets do not carry — discards it and rebuilds from the
// segment scan.
//
//	header:  magic u32 | idxVersion u16 | reserved u16 | baseSeq u64 |
//	         crc32c(header[0:16]) u32 | reserved u32
//	frame:   one fkIndex frame (same framing as segments), body:
//	         firstSeq u64 | lastSeq u64 | minUnixNano u64 | maxUnixNano u64 |
//	         segSize u64 | eventCount u32 | eventOffsets [count]u32 |
//	         nCollectors u32 | { nameLen u16 | name } ... |
//	         nPeers u32 | { as u32 | addrLen u8 | addr } ... |
//	         nPrefixes u32 | { bits u8 | addrLen u8 | addr } ...
//
// The sidecar is versioned apart from the segment format: version 1 also
// carried a (peer, prefix) posting index and per-collector counts, and such
// a sidecar fails the header check and is rebuilt.

import (
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
)

const (
	idxHeaderLen = 24
	idxVersion   = 2
)

// segIndex is the decoded sidecar of one sealed segment. Event ordinal i
// holds sequence number firstSeq+i at offsets[i].
type segIndex struct {
	firstSeq, lastSeq uint64
	minNS, maxNS      int64
	segSize           uint64
	offsets           []uint32
	segDicts
}

// buildIndex seals accumulated builder state into a segIndex.
func buildIndex(b *idxBuilder, d *segDicts, segSize int64) *segIndex {
	return &segIndex{
		firstSeq: b.firstSeq,
		lastSeq:  b.lastSeq,
		minNS:    b.minNS,
		maxNS:    b.maxNS,
		segSize:  uint64(segSize),
		offsets:  b.offsets,
		segDicts: d.slices(),
	}
}

func encodeIndex(baseSeq uint64, idx *segIndex) []byte {
	body := make([]byte, 0, 64+4*len(idx.offsets))
	body = le.AppendUint64(body, idx.firstSeq)
	body = le.AppendUint64(body, idx.lastSeq)
	body = le.AppendUint64(body, uint64(idx.minNS))
	body = le.AppendUint64(body, uint64(idx.maxNS))
	body = le.AppendUint64(body, idx.segSize)
	body = le.AppendUint32(body, uint32(len(idx.offsets)))
	for _, off := range idx.offsets {
		body = le.AppendUint32(body, off)
	}
	body = le.AppendUint32(body, uint32(len(idx.colls)))
	for _, name := range idx.colls {
		body = le.AppendUint16(body, uint16(len(name)))
		body = append(body, name...)
	}
	body = le.AppendUint32(body, uint32(len(idx.peers)))
	for _, pk := range idx.peers {
		body = le.AppendUint32(body, pk.as)
		body = appendAddr(body, pk.addr)
	}
	body = le.AppendUint32(body, uint32(len(idx.prefs)))
	for _, p := range idx.prefs {
		body = append(body, byte(p.Bits()))
		body = appendAddr(body, p.Addr())
	}
	return frameIndex(baseSeq, body)
}

// frameIndex wraps a sidecar body in the sidecar header and its fkIndex
// frame.
func frameIndex(baseSeq uint64, body []byte) []byte {
	buf := make([]byte, idxHeaderLen+frameHeaderLen, idxHeaderLen+frameHeaderLen+len(body))
	le.PutUint32(buf[0:], idxMagic)
	le.PutUint16(buf[4:], idxVersion)
	le.PutUint64(buf[8:], baseSeq)
	le.PutUint32(buf[16:], crc32.Checksum(buf[:16], castagnoli))
	fh := buf[idxHeaderLen:]
	le.PutUint32(fh[0:], uint32(len(body)))
	fh[4] = fkIndex
	le.PutUint32(fh[5:], frameCRC(fkIndex, body))
	return append(buf, body...)
}

// writeIndexFile writes the sidecar atomically (temp + fsync + rename).
func writeIndexFile(path string, baseSeq uint64, idx *segIndex) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("eventstore: %w", err)
	}
	if _, err := f.Write(encodeIndex(baseSeq, idx)); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("eventstore: write %s: %w", filepath.Base(tmp), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("eventstore: fsync %s: %w", filepath.Base(tmp), err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("eventstore: close %s: %w", filepath.Base(tmp), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("eventstore: %w", err)
	}
	return nil
}

// byteReader is a bounds-checked little-endian cursor for index decoding:
// any overrun sets bad and every later read returns zeros, so one check
// at the end suffices.
type byteReader struct {
	b   []byte
	off int
	bad bool
}

func (r *byteReader) take(n int) []byte {
	if r.bad || n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *byteReader) u8() byte {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *byteReader) u16() uint16 {
	if s := r.take(2); s != nil {
		return le.Uint16(s)
	}
	return 0
}

func (r *byteReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return le.Uint32(s)
	}
	return 0
}

func (r *byteReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return le.Uint64(s)
	}
	return 0
}

// count reads a u32 collection count, bounding it by a conservative
// per-element size so corrupt counts cannot drive huge allocations.
func (r *byteReader) count(elemSize int) int {
	n := int(r.u32())
	if r.bad || n < 0 || n*elemSize > len(r.b)-r.off {
		r.bad = true
		return 0
	}
	return n
}

func decodeIndexBody(body []byte) (*segIndex, error) {
	r := &byteReader{b: body}
	idx := &segIndex{
		firstSeq: r.u64(),
		lastSeq:  r.u64(),
		minNS:    int64(r.u64()),
		maxNS:    int64(r.u64()),
		segSize:  r.u64(),
	}
	nEvents := r.count(4)
	idx.offsets = make([]uint32, nEvents)
	for i := range idx.offsets {
		idx.offsets[i] = r.u32()
	}
	nColls := r.count(2)
	idx.colls = make([]string, 0, nColls)
	for i := 0; i < nColls; i++ {
		idx.colls = append(idx.colls, string(r.take(int(r.u16()))))
	}
	nPeers := r.count(5)
	idx.peers = make([]peerKey, 0, nPeers)
	for i := 0; i < nPeers; i++ {
		as := r.u32()
		addr, ok := decodeAddr(r.addrBytes())
		if !ok {
			r.bad = true
		}
		idx.peers = append(idx.peers, peerKey{as: as, addr: addr})
	}
	nPrefs := r.count(2)
	idx.prefs = make([]netip.Prefix, 0, nPrefs)
	for i := 0; i < nPrefs; i++ {
		bits := r.u8()
		addr, ok := decodeAddr(r.addrBytes())
		if !ok || (!r.bad && !addr.IsValid()) {
			r.bad = true
		}
		p := netip.PrefixFrom(addr, int(bits))
		if !r.bad && !p.IsValid() {
			r.bad = true
		}
		idx.prefs = append(idx.prefs, p)
	}
	if r.bad || r.off != len(body) {
		return nil, fmt.Errorf("%w: index body", ErrCorrupt)
	}
	// Structural sanity: a sealed segment holds at least one event, its
	// sequence range matches the offset table, and every offset stays
	// inside the segment.
	if len(idx.offsets) == 0 || idx.lastSeq != idx.firstSeq+uint64(len(idx.offsets))-1 {
		return nil, fmt.Errorf("%w: index sequence range", ErrCorrupt)
	}
	for _, off := range idx.offsets {
		if uint64(off)+frameHeaderLen > idx.segSize {
			return nil, fmt.Errorf("%w: index offset beyond segment", ErrCorrupt)
		}
	}
	return idx, nil
}

// matchesData checks the sidecar's sequence range against the data file
// at both ends: the frame at the first offset is event firstSeq, the frame
// at the last offset is event lastSeq, and only whole dictionary frames
// (the remnant of a torn append) follow it up to the end of data. A
// sidecar that passes its own checks can still drop the newest events or
// claim a lastSeq past them; the interior ordinals are checked by every
// read instead.
func (idx *segIndex) matchesData(data []byte) bool {
	eventAt := func(off uint32, seq uint64) int64 {
		return scanFrames(data, int64(off), func(kind byte, body []byte, at int64) bool {
			if at > int64(off) {
				return kind != fkEvent
			}
			e, ok := decodeEventBody(body)
			return kind == fkEvent && ok && e.seq == seq
		})
	}
	first, last := idx.offsets[0], idx.offsets[len(idx.offsets)-1]
	return eventAt(first, idx.firstSeq) > int64(first) && eventAt(last, idx.lastSeq) == int64(len(data))
}

// addrBytes reads a length-prefixed address (length byte, then that many
// bytes) in the form decodeAddr takes.
func (r *byteReader) addrBytes() (byte, []byte) {
	n := r.u8()
	return n, r.take(int(n))
}

// readIndexFile reads and validates a sidecar; any error means "treat as
// missing and rebuild".
func readIndexFile(path string, wantBaseSeq uint64) (*segIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < idxHeaderLen+frameHeaderLen {
		return nil, fmt.Errorf("%w: short index", ErrCorrupt)
	}
	h := data[:idxHeaderLen]
	if le.Uint32(h[0:]) != idxMagic || le.Uint16(h[4:]) != idxVersion ||
		le.Uint32(h[16:]) != crc32.Checksum(h[:16], castagnoli) {
		return nil, fmt.Errorf("%w: index header", ErrCorrupt)
	}
	if le.Uint64(h[8:]) != wantBaseSeq {
		return nil, fmt.Errorf("%w: index base sequence", ErrCorrupt)
	}
	fh := data[idxHeaderLen:]
	bodyLen := int64(le.Uint32(fh[0:]))
	if fh[4] != fkIndex || bodyLen > maxFrameBody ||
		int64(len(data)) != idxHeaderLen+frameHeaderLen+bodyLen {
		return nil, fmt.Errorf("%w: index frame", ErrCorrupt)
	}
	body := data[idxHeaderLen+frameHeaderLen:]
	if frameCRC(fkIndex, body) != le.Uint32(fh[5:]) {
		return nil, fmt.Errorf("%w: index frame crc", ErrCorrupt)
	}
	idx, err := decodeIndexBody(body)
	if err != nil {
		return nil, err
	}
	if idx.firstSeq != wantBaseSeq {
		return nil, fmt.Errorf("%w: index first sequence", ErrCorrupt)
	}
	return idx, nil
}
