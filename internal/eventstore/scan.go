package eventstore

import (
	"fmt"
	"net/netip"
	"os"
	"sort"
	"time"
)

// Query filters a Scan. The zero Query matches everything.
type Query struct {
	// From/To bound event time as [From, To); a zero bound is open.
	From, To time.Time
	// Collector, when non-empty, matches events from that collector.
	Collector string
	// PeerAS/PeerAddr, when either is set, match events of that exact
	// peer (both fields are compared).
	PeerAS   uint32
	PeerAddr netip.Addr
	// Prefix, when valid, matches events carrying that exact prefix.
	// Events with no prefixes (session/state events) never match a
	// prefix filter.
	Prefix netip.Prefix
	// Kind, when non-zero, matches events of that payload kind.
	Kind uint8
}

func (q Query) hasPeer() bool { return q.PeerAS != 0 || q.PeerAddr.IsValid() }

func (q Query) peerKey() peerKey { return peerKey{as: q.PeerAS, addr: q.PeerAddr} }

func (q Query) timeMatches(ns int64) bool {
	if !q.From.IsZero() && ns < q.From.UnixNano() {
		return false
	}
	if !q.To.IsZero() && ns >= q.To.UnixNano() {
		return false
	}
	return true
}

// snapshot pins the store's segment set for a lock-free read: sealed
// segments by refcount, and the active segment's events with sequence
// numbers in [lo, hi] as the byte range [activeFrom, activeTo) of the live
// file. The writer's offset table locates both ends, so a read touches
// only the frames it wants; the range covers whole frames, so reading it
// is safe against concurrent appends. The active dictionaries are pinned
// as they stand: they are append-only, so the prefix seen here never
// changes, and the read need not walk the file from its header.
type snapshot struct {
	segs                 []*segment
	activePath           string
	activeFrom, activeTo int64
	dicts                segDicts
}

func (s *Store) snapshot(lo, hi uint64) (snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return snapshot{}, ErrClosed
	}
	s.scans.Add(1)
	sn := snapshot{segs: make([]*segment, len(s.segs))}
	copy(sn.segs, s.segs)
	for _, seg := range sn.segs {
		seg.acquire()
	}
	if w := s.w; w != nil && w.count() > 0 && lo <= hi && lo <= w.bld.lastSeq && hi >= w.firstSeq() {
		offs := w.bld.offsets
		sn.activePath = w.path
		sn.activeFrom, sn.activeTo = int64(offs[0]), w.size
		if lo > w.firstSeq() {
			sn.activeFrom = int64(offs[lo-w.firstSeq()])
		}
		if hi < w.bld.lastSeq {
			sn.activeTo = int64(offs[hi-w.firstSeq()+1])
		}
		sn.dicts = segDicts{colls: w.dicts.colls, peers: w.dicts.peers, prefs: w.dicts.prefs}
	}
	return sn, nil
}

func (s *Store) releaseSnapshot(sn snapshot) {
	for _, seg := range sn.segs {
		seg.release()
	}
	s.scans.Done()
}

// makeEvent assembles an Event from a decoded frame. With copy false the
// payload (and prefix scratch) alias backing storage valid only until the
// next event; with copy true everything is retention-safe.
func makeEvent(e rawEvent, colls []string, peers []peerKey, prefs []netip.Prefix, scratch *[]netip.Prefix, copyOut bool) Event {
	ev := Event{
		Seq:     e.seq,
		Time:    time.Unix(0, e.ns),
		Kind:    e.kind,
		Payload: e.payload,
	}
	if int(e.coll) < len(colls) {
		ev.Collector = colls[e.coll]
	}
	if e.peer != noPeer && int(e.peer) < len(peers) {
		pk := peers[e.peer]
		ev.PeerAS, ev.PeerAddr = pk.as, pk.addr
	}
	if n := e.nPrefixes(); n > 0 {
		*scratch = (*scratch)[:0]
		for i := 0; i < n; i++ {
			if id := e.prefixID(i); int(id) < len(prefs) {
				*scratch = append(*scratch, prefs[id])
			}
		}
		ev.Prefixes = *scratch
	}
	if copyOut {
		ev.Payload = append([]byte(nil), e.payload...)
		if len(ev.Prefixes) > 0 {
			ev.Prefixes = append([]netip.Prefix(nil), ev.Prefixes...)
		}
	}
	return ev
}

// Scan streams matching events in sequence order. The callback's Event
// payload (and Prefixes slice) alias store-owned memory — mmap'd segment
// data — and are valid only for the duration of the callback; this is the
// zero-copy path that feeds MRT payloads straight into bgp.Scratch.
// Returning an error from fn stops the scan and returns that error.
func (s *Store) Scan(q Query, fn func(Event) error) error {
	sn, err := s.snapshot(0, ^uint64(0))
	if err != nil {
		return err
	}
	defer s.releaseSnapshot(sn)
	s.metrics.scans.Inc()
	var scratch []netip.Prefix
	for _, seg := range sn.segs {
		if err := s.scanSealed(seg, q, &scratch, fn); err != nil {
			return err
		}
	}
	if sn.activePath != "" {
		return s.scanActive(sn, q, &scratch, fn, false)
	}
	return nil
}

// scanSealed scans one sealed segment through its span index.
func (s *Store) scanSealed(seg *segment, q Query, scratch *[]netip.Prefix, fn func(Event) error) error {
	idx := seg.idx
	if !q.From.IsZero() && idx.maxNS < q.From.UnixNano() {
		return nil
	}
	if !q.To.IsZero() && idx.minNS >= q.To.UnixNano() {
		return nil
	}
	collID := noPeer
	if q.Collector != "" {
		id, ok := idx.collectorID(q.Collector)
		if !ok {
			return nil
		}
		collID = id
	}
	ords, all, ok := candidateOrdinals(idx, q)
	if !ok {
		return nil
	}
	if all && collID == noPeer && q.Kind == 0 && q.From.IsZero() && q.To.IsZero() {
		return s.scanSealedAll(seg, scratch, fn)
	}
	bytes := int64(0)
	emit := func(ord int) error {
		e, err := seg.event(ord)
		if err != nil {
			return err
		}
		bytes += frameHeaderLen + eventFixedLen + int64(len(e.ids)) + int64(len(e.payload))
		if !q.timeMatches(e.ns) {
			return nil
		}
		if q.Kind != 0 && e.kind != q.Kind {
			return nil
		}
		if collID != noPeer && e.coll != collID {
			return nil
		}
		return fn(makeEvent(e, idx.colls, idx.peers, idx.prefs, scratch, false))
	}
	if all {
		for ord := range idx.offsets {
			if err := emit(ord); err != nil {
				return err
			}
		}
	} else {
		for _, ord := range ords {
			if err := emit(int(ord)); err != nil {
				return err
			}
		}
	}
	s.metrics.scanBytes.Add(bytes)
	return nil
}

// scanSealedAll is the unfiltered hot path over one sealed segment: a
// straight walk of the offset table against the mapping, sized for the
// multi-GB/s sweeps lifespan analyses make over months of segments.
func (s *Store) scanSealedAll(seg *segment, scratch *[]netip.Prefix, fn func(Event) error) error {
	idx := seg.idx
	data := seg.data
	n := int64(len(data))
	for _, off32 := range idx.offsets {
		off := int64(off32)
		if off+frameHeaderLen > n {
			return fmt.Errorf("%w: %s: event offset beyond file", ErrCorrupt, seg.path)
		}
		end := off + frameHeaderLen + int64(le.Uint32(data[off:]))
		if data[off+4] != fkEvent || end > n {
			return fmt.Errorf("%w: %s: event frame invalid", ErrCorrupt, seg.path)
		}
		e, ok := decodeEventBody(data[off+frameHeaderLen : end])
		if !ok {
			return fmt.Errorf("%w: %s: event body invalid", ErrCorrupt, seg.path)
		}
		if err := fn(makeEvent(e, idx.colls, idx.peers, idx.prefs, scratch, false)); err != nil {
			return err
		}
	}
	s.metrics.scanBytes.Add(seg.size - segHeaderLen)
	return nil
}

// candidateOrdinals resolves the peer/prefix filters against the span
// index. all=true means every ordinal; ok=false means the segment cannot
// match.
func candidateOrdinals(idx *segIndex, q Query) (ords []uint32, all, ok bool) {
	hasPeer, hasPrefix := q.hasPeer(), q.Prefix.IsValid()
	if !hasPeer && !hasPrefix {
		return nil, true, true
	}
	peerID, prefixID := noPeer, noPrefix
	if hasPeer {
		id, found := idx.peerID(q.peerKey())
		if !found {
			return nil, false, false
		}
		peerID = id
	}
	if hasPrefix {
		id, found := idx.prefixID(q.Prefix)
		if !found {
			return nil, false, false
		}
		prefixID = id
	}
	var lists [][]uint32
	for _, pp := range idx.pairs {
		if hasPeer && pp.peer != peerID {
			continue
		}
		if hasPrefix {
			if pp.prefix != prefixID {
				continue
			}
		} else if pp.prefix == noPrefix && pp.peer == noPeer {
			// peer filter set but this is the no-peer posting slot
			continue
		}
		lists = append(lists, pp.ords)
	}
	if len(lists) == 0 {
		return nil, false, false
	}
	if len(lists) == 1 {
		return lists[0], false, true
	}
	// Merge, dedupe (an event with several prefixes posts once per pair).
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	merged := make([]uint32, 0, total)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	out := merged[:0]
	for i, o := range merged {
		if i == 0 || o != merged[i-1] {
			out = append(out, o)
		}
	}
	return out, false, true
}

// scanActive sequentially scans the byte range of the live segment file
// pinned in the snapshot, restricted to the query filters.
func (s *Store) scanActive(sn snapshot, q Query, scratch *[]netip.Prefix, fn func(Event) error, copyOut bool) error {
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
	dicts := &sn.dicts
	var ferr error
	bytes := int64(0)
	good := scanFrames(data, 0, func(kind byte, body []byte, off int64) bool {
		if kind != fkEvent {
			// The pinned dictionaries already hold every entry in range.
			return kind == fkCollector || kind == fkPeer || kind == fkPrefix
		}
		e, ok := decodeEventBody(body)
		if !ok || !dicts.validEvent(e) {
			return false
		}
		bytes += frameHeaderLen + int64(len(body))
		if !matchScanned(q, e, dicts) {
			return true
		}
		ferr = fn(makeEvent(e, dicts.colls, dicts.peers, dicts.prefs, scratch, copyOut))
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

// matchScanned applies the query filters to a sequentially-scanned event.
func matchScanned(q Query, e rawEvent, d *segDicts) bool {
	if !q.timeMatches(e.ns) {
		return false
	}
	if q.Kind != 0 && e.kind != q.Kind {
		return false
	}
	if q.Collector != "" && d.colls[e.coll] != q.Collector {
		return false
	}
	if q.hasPeer() {
		if e.peer == noPeer || d.peers[e.peer] != q.peerKey() {
			return false
		}
	}
	if q.Prefix.IsValid() {
		found := false
		for i := 0; i < e.nPrefixes(); i++ {
			if d.prefs[e.prefixID(i)] == q.Prefix {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Replay streams the events with sequence numbers in (fromSeq, toSeq], in
// order — the half-open range a resume-from-sequence subscriber wants.
// Unlike Scan, delivered Events own their memory (payload and prefixes
// are copied) so they can be queued past the callback.
func (s *Store) Replay(fromSeq, toSeq uint64, fn func(Event) error) error {
	lo := fromSeq + 1
	sn, err := s.snapshot(lo, toSeq)
	if err != nil {
		return err
	}
	defer s.releaseSnapshot(sn)
	s.metrics.scans.Inc()
	var scratch []netip.Prefix
	for _, seg := range sn.segs {
		idx := seg.idx
		if idx.lastSeq < lo {
			continue
		}
		if idx.firstSeq > toSeq {
			return nil
		}
		startOrd := 0
		if lo > idx.firstSeq {
			startOrd = int(lo - idx.firstSeq)
		}
		endOrd := len(idx.offsets) - 1
		if toSeq < idx.lastSeq {
			endOrd = int(toSeq - idx.firstSeq)
		}
		bytes := int64(0)
		for ord := startOrd; ord <= endOrd; ord++ {
			e, err := seg.event(ord)
			if err != nil {
				return err
			}
			bytes += frameHeaderLen + eventFixedLen + int64(len(e.ids)) + int64(len(e.payload))
			if err := fn(makeEvent(e, idx.colls, idx.peers, idx.prefs, &scratch, true)); err != nil {
				return err
			}
		}
		s.metrics.scanBytes.Add(bytes)
	}
	if sn.activePath != "" {
		return s.scanActive(sn, Query{}, &scratch, fn, true)
	}
	return nil
}
