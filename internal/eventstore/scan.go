package eventstore

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"
)

// Query selects the events a Scan delivers. The zero Query matches
// everything.
type Query struct {
	// Kind, when non-zero, matches events with a payload of that kind:
	// never a gap, which has no payload.
	Kind uint8
}

// snapshot pins the store's segment set for a lock-free read: sealed
// segments by refcount, and the active segment's events with sequence
// numbers in [lo, hi] as the byte range [activeFrom, activeTo) of the live
// file, whose first event is activeSeq. The writer's offset table locates
// both ends, so a read touches only the frames it wants; the range covers
// whole frames, so reading it is safe against concurrent appends. The
// active dictionaries are pinned as they stand: they are append-only, so
// the prefix seen here never changes, and the read need not walk the file
// from its header. first is the oldest sequence retained at that moment.
type snapshot struct {
	first                uint64
	segs                 []*segment
	activePath           string
	activeFrom, activeTo int64
	activeSeq            uint64
	dicts                segDicts
}

func (s *Store) snapshot(lo, hi uint64) (snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return snapshot{}, ErrClosed
	}
	s.scans.Add(1)
	sn := snapshot{first: s.firstSeqLocked(), segs: make([]*segment, len(s.segs))}
	copy(sn.segs, s.segs)
	for _, seg := range sn.segs {
		seg.acquire()
	}
	if w := s.w; w != nil && w.count() > 0 && lo <= hi && lo <= w.bld.lastSeq && hi >= w.firstSeq() {
		offs := w.bld.offsets
		sn.activePath = w.path
		sn.activeFrom, sn.activeTo = int64(offs[0]), w.size
		sn.activeSeq = w.firstSeq()
		if lo > w.firstSeq() {
			sn.activeFrom = int64(offs[lo-w.firstSeq()])
			sn.activeSeq = lo
		}
		if hi < w.bld.lastSeq {
			sn.activeTo = int64(offs[hi-w.firstSeq()+1])
		}
		sn.dicts = w.dicts
	}
	return sn, nil
}

func (s *Store) releaseSnapshot(sn snapshot) {
	for _, seg := range sn.segs {
		seg.release()
	}
	s.scans.Done()
}

// makeEvent assembles an Event from a decoded frame, or reports false when
// the frame references an id beyond the dictionaries. With copyOut false
// the payload (and prefix scratch) alias backing storage valid only until
// the next event; with copyOut true everything is retention-safe.
func makeEvent(e *rawEvent, d *segDicts, scratch *[]netip.Prefix, copyOut bool) (Event, bool) {
	if !d.resolves(e) {
		return Event{}, false
	}
	ev := Event{
		Seq:       e.seq,
		Time:      time.Unix(0, e.ns),
		Collector: d.colls[e.coll],
		Kind:      e.kind,
		Payload:   e.payload,
	}
	if e.peer != noPeer {
		pk := d.peers[e.peer]
		ev.PeerAS, ev.PeerAddr = pk.as, pk.addr
	}
	if n := e.nPrefixes(); n > 0 {
		*scratch = (*scratch)[:0]
		for i := 0; i < n; i++ {
			*scratch = append(*scratch, d.prefs[e.prefixID(i)])
		}
		ev.Prefixes = *scratch
	}
	if copyOut {
		ev.Payload = append([]byte(nil), e.payload...)
		if len(ev.Prefixes) > 0 {
			ev.Prefixes = append([]netip.Prefix(nil), ev.Prefixes...)
		}
	}
	return ev, true
}

// Scan streams every event of q.Kind (every event, for the zero Query) in
// sequence order. The callback's Event payload (and Prefixes slice) alias
// store-owned memory — mmap'd segment data — and are valid only for the
// duration of the callback; this is the zero-copy path that feeds MRT
// payloads straight into bgp.Scratch. Returning an error from fn stops the
// scan and returns that error.
func (s *Store) Scan(q Query, fn func(Event) error) error {
	return s.read(0, ^uint64(0), q.Kind, false, fn)
}

// Replay streams the events with sequence numbers in (fromSeq, toSeq], in
// order — the half-open range a resume-from-sequence subscriber wants.
// Unlike Scan, delivered Events own their memory (payload and prefixes
// are copied) so they can be queued past the callback. A non-empty range
// that starts below FirstSeq fails with ErrDropped before delivering
// anything: retention has dropped events the caller asked for, and
// skipping them would be a silent gap.
func (s *Store) Replay(fromSeq, toSeq uint64, fn func(Event) error) error {
	return s.read(fromSeq+1, toSeq, 0, true, fn)
}

// read is the one read loop behind Scan and Replay: the events with
// sequence numbers in [lo, hi] and payload kind kind (0: any), sealed
// segments first, then the pinned range of the active segment.
func (s *Store) read(lo, hi uint64, kind uint8, copyOut bool, fn func(Event) error) error {
	sn, err := s.snapshot(lo, hi)
	if err != nil {
		return err
	}
	defer s.releaseSnapshot(sn)
	// Scan reads from lo 0, whatever is retained.
	if lo > 0 && lo <= hi && lo < sn.first {
		return fmt.Errorf("%w: read from seq %d, oldest retained is %d", ErrDropped, lo, sn.first)
	}
	s.metrics.scans.Inc()
	var scratch []netip.Prefix
	for _, seg := range sn.segs {
		if seg.idx.firstSeq > hi {
			return nil
		}
		bytes, err := seg.walk(lo, hi, kind, copyOut, &scratch, fn)
		s.metrics.scanBytes.Add(bytes)
		if err != nil {
			return err
		}
	}
	if sn.activePath != "" {
		return s.readActive(sn, kind, copyOut, &scratch, fn)
	}
	return nil
}

// walk streams the events of a sealed segment with sequence numbers in
// [lo, hi] and payload kind kind (0: any): a straight walk of the offset
// table against the mapping, sized for the multi-GB/s sweeps a restart and
// a lifespan analysis make over months of segments. Event ordinal i must
// hold sequence number firstSeq+i; anything else is ErrCorrupt. It returns
// the event frame bytes visited.
func (seg *segment) walk(lo, hi uint64, kind uint8, copyOut bool, scratch *[]netip.Prefix, fn func(Event) error) (int64, error) {
	idx := seg.idx
	if hi < idx.firstSeq || lo > idx.lastSeq {
		return 0, nil
	}
	first, last := uint64(0), uint64(len(idx.offsets)-1)
	if lo > idx.firstSeq {
		first = lo - idx.firstSeq
	}
	if hi < idx.lastSeq {
		last = hi - idx.firstSeq
	}
	data := seg.data
	n := int64(len(data))
	bytes := int64(0)
	corrupt := func(ord uint64, what string) (int64, error) {
		return bytes, fmt.Errorf("%w: %s: seq %d: %s", ErrCorrupt, filepath.Base(seg.path), idx.firstSeq+ord, what)
	}
	var e rawEvent
	for ord := first; ord <= last; ord++ {
		off := int64(idx.offsets[ord])
		if off+frameHeaderLen > n {
			return corrupt(ord, "event offset beyond file")
		}
		end := off + frameHeaderLen + int64(le.Uint32(data[off:]))
		if data[off+4] != fkEvent || end > n {
			return corrupt(ord, "event frame invalid")
		}
		if !e.decode(data[off+frameHeaderLen:end]) || e.seq != idx.firstSeq+ord {
			return corrupt(ord, "event body invalid or out of sequence")
		}
		bytes += end - off
		if kind != 0 && (e.kind != kind || len(e.payload) == 0) {
			continue
		}
		ev, ok := makeEvent(&e, &idx.segDicts, scratch, copyOut)
		if !ok {
			return corrupt(ord, "event references a missing dictionary entry")
		}
		if err := fn(ev); err != nil {
			return bytes, err
		}
	}
	return bytes, nil
}

// readActive reads the byte range of the live segment file pinned in the
// snapshot and streams its events of payload kind kind (0: any).
func (s *Store) readActive(sn snapshot, kind uint8, copyOut bool, scratch *[]netip.Prefix, fn func(Event) error) error {
	f, err := os.Open(sn.activePath)
	if err != nil {
		return fmt.Errorf("eventstore: %w", err)
	}
	data := make([]byte, sn.activeTo-sn.activeFrom)
	_, err = f.ReadAt(data, sn.activeFrom)
	f.Close()
	if err != nil {
		return fmt.Errorf("eventstore: read active segment: %w", err)
	}
	next := sn.activeSeq
	var ferr error
	var e rawEvent
	bytes := int64(0)
	good := scanFrames(data, 0, func(fk byte, body []byte, off int64) bool {
		if fk != fkEvent {
			// The pinned dictionaries already hold every entry in range.
			return fk == fkCollector || fk == fkPeer || fk == fkPrefix
		}
		if !e.decode(body) || e.seq != next {
			return false
		}
		next++
		bytes += frameHeaderLen + int64(len(body))
		if kind != 0 && (e.kind != kind || len(e.payload) == 0) {
			return true
		}
		ev, ok := makeEvent(&e, &sn.dicts, scratch, copyOut)
		if !ok {
			return false
		}
		ferr = fn(ev)
		return ferr == nil
	})
	s.metrics.scanBytes.Add(bytes)
	if ferr != nil {
		return ferr
	}
	if good < int64(len(data)) {
		return fmt.Errorf("%w: active segment at offset %d", ErrCorrupt, sn.activeFrom+good)
	}
	return nil
}
