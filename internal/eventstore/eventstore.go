// Package eventstore is the durable, segmented, append-only event store
// that lets the repo hold a zombie's full lifetime on disk — the paper's
// headline result is stuck routes living for days to months (up to 8.5
// months), far past anything an in-memory replay window can retain.
//
// The design extends the columnar zombie.History layout (PR 4) to disk.
// Events append to a segment file as CRC-32C-framed records; collector
// names, peers and prefixes are canonicalized into per-segment dense
// dictionaries (dictionary entries interleave with events, so a segment
// is self-describing under a pure sequential scan). When a segment
// reaches its size budget — or the store closes — it is sealed: its data
// file is fsynced and mmap'd for reads (with a plain-read fallback on
// platforms without mmap). The data file is a segment's only on-disk
// state: Open maps each segment and derives its index (sequence range,
// time bounds, event offset table and dictionaries) from one scan of the
// mapping, which every shipped opener follows with a Scan of the whole
// journal anyway.
//
// The store serves two reads, both through one loop over a sequence
// range: Scan delivers every event (optionally of one payload kind) with
// payload slices that alias the mapping, so MRT payloads feed bgp.Scratch
// and the intern table zero-copy; Replay delivers the events of a
// (from, to] sequence range with copied payloads.
//
// Crash safety is by construction: every frame carries a CRC over its
// kind and body, so a torn tail write (the process died mid-append) is
// detected on the next Open and truncated back to the last whole frame.
// A corrupt segment header on the newest segment quarantines the file; on
// an older segment it is a hard error, because silently skipping interior
// data would fabricate a gap.
//
// A restarted store does not start a new segment: the first append after
// Open continues the newest segment while it is below the segment size,
// so many restarts (or crash recoveries) leave no trail of small
// segments. An optional retention bound drops the oldest sealed segments
// once they exceed a byte budget (consumers see the loss through
// FirstSeq, exactly like a broker replay window, and a Replay that asks
// for a dropped sequence fails instead of skipping it).
//
// Sequence numbers are assigned by the producer (the livefeed broker) and
// must be contiguous: Append enforces Seq == LastSeq()+1, which is what
// makes resume-from-sequence reads O(1) — the ordinal of seq s inside a
// segment is s minus the segment's first sequence, and every read checks
// that the event it finds there carries s.
package eventstore

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sentinel errors of the store.
var (
	ErrClosed     = errors.New("eventstore: store closed")
	ErrOutOfOrder = errors.New("eventstore: append out of sequence")
	ErrCorrupt    = errors.New("eventstore: corrupt segment")
	ErrReadOnly   = errors.New("eventstore: store opened read-only")
	ErrDropped    = errors.New("eventstore: sequence dropped by retention")
)

// Conventional payload kinds. The store treats Kind as opaque; these
// constants only exist so producers and consumers that never import each
// other (livefeed journaling, zombie history builds) agree on what a
// payload holds. Kind 0 is reserved: Query.Kind uses it as "any".
const (
	// KindMRT marks a payload holding one complete MRT record (common
	// header included) — the zero-copy detection feed.
	KindMRT uint8 = 1
	// KindJSON marks a payload holding one JSON-encoded application
	// event (e.g. a livefeed zombie alert).
	KindJSON uint8 = 2
)

// Event is one stored event. Collector, peer and prefixes are
// dictionary-encoded on disk; Payload is opaque to the store.
type Event struct {
	// Seq is the producer-assigned sequence number; appends must be
	// contiguous.
	Seq uint64
	// Time is the event instant (collector receive time for records,
	// detection time for alerts).
	Time time.Time
	// Collector names the source collector ("" allowed).
	Collector string
	// PeerAS / PeerAddr identify the BGP peer, when there is one.
	// An invalid (zero) PeerAddr with PeerAS 0 means "no peer".
	PeerAS   uint32
	PeerAddr netip.Addr
	// Kind tags the payload encoding (see KindMRT / KindJSON).
	Kind uint8
	// Prefixes are the prefixes the event concerns.
	Prefixes []netip.Prefix
	// Payload is the event body.
	Payload []byte
}

// Options parameterize Open.
type Options struct {
	// Dir is the store directory (created if missing unless ReadOnly).
	Dir string
	// SegmentBytes rolls the active segment once it exceeds this size.
	// Default 64 MiB; capped at 1 GiB (the offset table is 32-bit).
	SegmentBytes int64
	// SyncEvery fsyncs the active segment after every N appends.
	// 0 syncs only on seal and Close; 1 syncs every append.
	SyncEvery int
	// RetainBytes drops the oldest sealed segments once the sealed
	// segments exceed this many bytes (0 = unbounded). The active
	// segment, up to SegmentBytes, comes on top and is never dropped.
	RetainBytes int64
	// ReadOnly opens without repairing: torn tails are reported in
	// SegmentInfo instead of truncated, no file is removed, and Append
	// fails.
	ReadOnly bool
	// Metrics is the instrument sink (nil: a private registry).
	Metrics *Metrics
}

func (o Options) segmentBytes() int64 {
	const (
		def = 64 << 20
		max = 1 << 30
	)
	switch {
	case o.SegmentBytes <= 0:
		return def
	case o.SegmentBytes > max:
		return max
	}
	return o.SegmentBytes
}

// Store is a durable event log. All methods are safe for concurrent use.
type Store struct {
	opts    Options
	metrics *Metrics

	mu   sync.Mutex
	segs []*segment // sealed segments, ascending baseSeq
	// tail is the newest sealed segment when Open found it below the
	// segment size: the first append continues it instead of starting
	// a new one.
	tail    *segment
	w       *segWriter // active segment; nil between rotation and next append
	lastSeq uint64
	// gaps are the sequences up to lastSeq whose append failed, waiting
	// for the next write to record them ahead of its own frames.
	gaps   []gap
	closed bool

	scans sync.WaitGroup
}

// gap is the time and kind of an event whose append failed, held until a
// write records it. At most maxGaps wait: a store holding that many takes
// no further sequence number, so a disk that keeps failing cannot grow
// the list without limit.
type gap struct {
	ns   int64
	kind uint8
}

const maxGaps = 1 << 16

// Open opens (creating if needed) the store at opts.Dir, recovering from
// any crash the previous process suffered: the newest segment's torn
// tail, if any, is truncated back to the last whole frame, and segments
// fully covered by their predecessor (the leftovers of an interrupted
// merge by an earlier build) are removed. Each segment's index is derived
// from a scan of its data file.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("eventstore: empty dir")
	}
	if !opts.ReadOnly {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("eventstore: %w", err)
		}
	}
	m := opts.Metrics
	if m == nil {
		m = NewMetrics(nil)
	}
	s := &Store{opts: opts, metrics: m}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.syncGauges()
	return s, nil
}

// load discovers and validates the on-disk segments.
func (s *Store) load() error {
	if !s.opts.ReadOnly {
		removeLeftovers(s.opts.Dir)
	}
	names, err := segmentFiles(s.opts.Dir)
	if err != nil {
		return err
	}
	var segs []*segment
	for i, name := range names {
		last := i == len(names)-1
		// A sealed segment holds every event below the next one's base
		// sequence; the newest grows by append.
		var events uint64
		if !last {
			events = sealedEvents(name, names[i+1])
		}
		seg, err := openSegment(filepath.Join(s.opts.Dir, name), last, s.opts.ReadOnly, events, s.metrics)
		if err != nil {
			if last && errors.Is(err, errBadHeader) && !s.opts.ReadOnly {
				// The newest segment's header never made it to disk
				// whole: quarantine the file and carry on. Older
				// segments get no such mercy — skipping interior data
				// would fabricate a silent gap.
				bad := filepath.Join(s.opts.Dir, name)
				if rerr := os.Rename(bad, bad+".corrupt"); rerr != nil {
					return fmt.Errorf("eventstore: quarantine %s: %w", name, rerr)
				}
				s.metrics.repairs.Inc()
				continue
			}
			return err
		}
		if seg == nil {
			continue // empty tail segment, removed
		}
		segs = append(segs, seg)
	}
	// Drop segments fully covered by their predecessor (stores written by
	// earlier builds, which merged small segments, can hold the inputs a
	// crash left behind) and verify the survivors are contiguous.
	var kept []*segment
	for _, seg := range segs {
		if n := len(kept); n > 0 {
			prev := kept[n-1]
			if seg.idx.lastSeq <= prev.idx.lastSeq {
				if s.opts.ReadOnly {
					seg.release()
					continue
				}
				os.Remove(seg.path)
				seg.release()
				s.metrics.repairs.Inc()
				continue
			}
			if seg.idx.firstSeq != prev.idx.lastSeq+1 {
				return fmt.Errorf("%w: %s starts at seq %d, previous segment ends at %d",
					ErrCorrupt, filepath.Base(seg.path), seg.idx.firstSeq, prev.idx.lastSeq)
			}
		}
		kept = append(kept, seg)
	}
	s.segs = kept
	if n := len(kept); n > 0 {
		s.lastSeq = kept[n-1].idx.lastSeq
		if !s.opts.ReadOnly && kept[n-1].size < s.opts.segmentBytes() {
			s.tail = kept[n-1]
		}
	}
	return nil
}

// removeLeftovers deletes the index sidecars (".idx") and their temp
// files (".tmp") that earlier builds wrote next to each segment, so that
// retention, which removes data files only, leaves no orphans.
func removeLeftovers(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && (strings.HasSuffix(name, ".idx") || strings.HasSuffix(name, ".tmp")) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// segmentFiles lists *.seg files in dir, sorted (zero-padded hex names
// sort by base sequence).
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// LastSeq returns the sequence number of the newest appended event,
// counting a failed append, which reads back as a gap (0 when empty).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// FirstSeq returns the oldest retained sequence number (0 when empty).
// It advances past 1 only when retention dropped old segments.
func (s *Store) FirstSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstSeqLocked()
}

func (s *Store) firstSeqLocked() uint64 {
	if len(s.segs) > 0 {
		return s.segs[0].idx.firstSeq
	}
	if s.w != nil && s.w.count() > 0 {
		return s.w.firstSeq()
	}
	return 0
}

// Append durably logs one event. Sequence numbers must be contiguous:
// ev.Seq must equal LastSeq()+1 (the producer owns numbering). A failed
// append still takes its sequence number, and the event reads back as a
// gap: its sequence, time and kind, with no collector, peer, prefixes or
// payload. An event the format cannot hold (an invalid prefix, more than
// 65535 prefixes) is written so and refused; one whose write fails is
// written so by the next write, an append's or a seal's (Close seals).
func (s *Store) Append(ev Event) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if ev.Seq != s.lastSeq+1 {
		return fmt.Errorf("%w: got seq %d, want %d", ErrOutOfOrder, ev.Seq, s.lastSeq+1)
	}
	if len(s.gaps) >= maxGaps {
		return fmt.Errorf("eventstore: seq %d refused: %d failed appends are not yet written", ev.Seq, len(s.gaps))
	}
	refused := checkEvent(ev)
	if refused != nil {
		ev = Event{Seq: ev.Seq, Time: ev.Time, Kind: ev.Kind}
	}
	n, err := s.writeLocked(&ev)
	s.lastSeq = ev.Seq
	if err != nil {
		s.gaps = append(s.gaps, gap{ns: ev.Time.UnixNano(), kind: ev.Kind})
		return err
	}
	s.metrics.appends.Inc()
	s.metrics.bytes.Add(float64(n))
	s.metrics.lastSeq.Set(float64(ev.Seq))
	s.metrics.firstSeq.Set(float64(s.firstSeqLocked()))
	if se := s.opts.SyncEvery; se > 0 {
		s.w.pendingSync++
		if s.w.pendingSync >= se {
			if err := s.fsyncActiveLocked(); err != nil {
				return err
			}
		}
	}
	if s.w.size >= s.opts.segmentBytes() {
		if err := s.sealLocked(); err != nil {
			return err
		}
	}
	s.metrics.appendSeconds.Observe(time.Since(start).Seconds())
	return refused
}

// writeLocked writes the pending gaps and then ev, when not nil, to the
// active segment, starting one if there is none, and returns the byte
// count written. ev must be the event after lastSeq. When the gaps are
// written and ev is not, the error is ev's.
func (s *Store) writeLocked(ev *Event) (n int, err error) {
	first := s.lastSeq + 1 - uint64(len(s.gaps))
	if s.w == nil {
		if s.w, err = s.startSegmentLocked(first); err != nil {
			return 0, err
		}
		s.metrics.segments.Set(float64(len(s.segs) + 1))
	}
	if len(s.gaps) > 0 {
		if n, err = s.w.writeGaps(first, s.gaps); err != nil {
			return 0, err
		}
		s.gaps = s.gaps[:0]
	}
	m := 0
	if ev != nil {
		m, err = s.w.append(*ev)
	}
	s.metrics.appendBytes.Add(int64(n + m))
	return n + m, err
}

// startSegmentLocked returns the writer for the next append: the tail
// segment Open left below the size budget, reopened, or else a new
// segment starting at seq. A continued tail leaves the sealed list; scans
// that pinned its mapping finish on it.
func (s *Store) startSegmentLocked(seq uint64) (*segWriter, error) {
	tail := s.tail
	s.tail = nil
	if tail == nil {
		return newSegWriter(s.opts.Dir, seq)
	}
	w, err := reopenSegWriter(tail)
	if err != nil {
		return nil, err
	}
	s.segs = s.segs[:len(s.segs)-1]
	tail.release()
	return w, nil
}

func (s *Store) fsyncActiveLocked() error {
	start := time.Now()
	if err := s.w.f.Sync(); err != nil {
		return fmt.Errorf("eventstore: fsync %s: %w", filepath.Base(s.w.path), err)
	}
	s.w.pendingSync = 0
	s.metrics.fsyncSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// sealLocked seals the active segment: write the pending gaps, fsync
// data, reopen read-only (mmap'd) and apply retention.
func (s *Store) sealLocked() error {
	if len(s.gaps) > 0 {
		if _, err := s.writeLocked(nil); err != nil {
			return err
		}
	}
	w := s.w
	if w == nil {
		return nil
	}
	if w.count() == 0 {
		// Nothing was ever appended; drop the empty file.
		w.f.Close()
		os.Remove(w.path)
		s.w = nil
		return nil
	}
	seg, err := w.seal(s.metrics)
	if err != nil {
		return err
	}
	s.w = nil
	s.segs = append(s.segs, seg)
	s.metrics.seals.Inc()
	s.enforceRetentionLocked()
	s.syncGaugesLocked()
	return nil
}

// enforceRetentionLocked drops the oldest sealed segments while the
// sealed total exceeds RetainBytes.
func (s *Store) enforceRetentionLocked() {
	limit := s.opts.RetainBytes
	if limit <= 0 {
		return
	}
	total := int64(0)
	for _, seg := range s.segs {
		total += seg.size
	}
	for len(s.segs) > 1 && total > limit {
		old := s.segs[0]
		s.segs = s.segs[1:]
		total -= old.size
		os.Remove(old.path)
		old.release()
		s.metrics.retentionDrops.Inc()
	}
}

func (s *Store) syncGauges() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncGaugesLocked()
}

func (s *Store) syncGaugesLocked() {
	n := len(s.segs)
	total := int64(0)
	for _, seg := range s.segs {
		total += seg.size
	}
	if s.w != nil {
		n++
		total += s.w.size
	}
	s.metrics.segments.Set(float64(n))
	s.metrics.bytes.Set(float64(total))
	s.metrics.firstSeq.Set(float64(s.firstSeqLocked()))
	s.metrics.lastSeq.Set(float64(s.lastSeq))
}

// Close seals the active segment and releases every mapping. In-flight
// scans are waited for.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if !s.opts.ReadOnly {
		err = s.sealLocked()
	}
	segs := s.segs
	s.segs = nil
	s.mu.Unlock()
	s.scans.Wait()
	for _, seg := range segs {
		seg.release()
	}
	return err
}

// Abandon closes the store's file handles WITHOUT sealing or fsyncing —
// it leaves the on-disk state exactly as a crashed
// process would. It exists for crash-recovery tests; production code
// wants Close.
func (s *Store) Abandon() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	w := s.w
	s.w = nil
	segs := s.segs
	s.segs = nil
	s.mu.Unlock()
	s.scans.Wait()
	if w != nil {
		w.f.Close()
	}
	for _, seg := range segs {
		seg.release()
	}
	return nil
}

// SegmentInfo describes one on-disk segment for inspection tooling.
type SegmentInfo struct {
	Path     string
	Sealed   bool // immutable and mapped; false for the active segment
	FirstSeq uint64
	LastSeq  uint64
	Events   int
	Bytes    int64
	MinTime  time.Time
	MaxTime  time.Time
	// Dictionary cardinalities.
	Collectors int
	Peers      int
	Prefixes   int
	// TornBytes reports unrecoverable tail bytes found at open time in
	// read-only mode (a read-write open truncates them instead).
	TornBytes int64
}

// SegmentInfos reports every segment, oldest first, the active segment
// last.
func (s *Store) SegmentInfos() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.segs)+1)
	for _, seg := range s.segs {
		out = append(out, seg.info())
	}
	if s.w != nil && s.w.count() > 0 {
		out = append(out, s.w.info())
	}
	return out
}
