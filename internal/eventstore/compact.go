package eventstore

// Compaction merges runs of small adjacent sealed segments so month-scale
// stores don't accumulate thousands of tiny files. The merge is built
// crash-first: the merged segment is written to a temp file, its index is
// placed atomically, and then — because the merged base sequence equals
// the first input's — renaming over the first input and deleting the rest
// leaves every intermediate crash state recoverable: a stale index is
// discarded by the size check and rebuilt by scan, and inputs that were
// not yet deleted are fully contained in the merged segment, which load()
// removes as leftovers.

import (
	"fmt"
	"net/netip"
	"os"
	"time"
)

// compactMinSegments is how many adjacent small sealed segments must
// accumulate before a merge happens. A merged segment stays within the
// store's segment size.
const compactMinSegments = 4

// Compact merges runs of at least compactMinSegments adjacent sealed
// segments, each smaller than the segment size, into segments within it,
// and returns how many input segments were consumed by merges.
// Concurrent appends and scans proceed during the merge; only the final
// in-memory swap takes the store lock.
func (s *Store) Compact() (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if s.opts.ReadOnly {
		s.mu.Unlock()
		return 0, ErrReadOnly
	}
	if s.compacting {
		s.mu.Unlock()
		return 0, nil
	}
	s.compacting = true
	groups := s.compactGroupsLocked()
	for _, g := range groups {
		for _, seg := range g {
			seg.acquire()
		}
	}
	s.mu.Unlock()

	merged := 0
	var firstErr error
	for _, g := range groups {
		n, err := s.mergeGroup(g)
		merged += n
		for _, seg := range g {
			seg.release()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	s.mu.Lock()
	s.compacting = false
	s.syncGaugesLocked()
	s.mu.Unlock()
	return merged, firstErr
}

// compactGroupsLocked selects maximal runs of adjacent sealed segments
// that are each below the segment size, greedily packed so a merged output
// stays within it.
func (s *Store) compactGroupsLocked() [][]*segment {
	target := s.opts.segmentBytes()
	var groups [][]*segment
	var run []*segment
	runBytes := int64(0)
	flush := func() {
		if len(run) >= compactMinSegments {
			groups = append(groups, run)
		}
		run, runBytes = nil, 0
	}
	for _, seg := range s.segs {
		eligible := seg.size < target
		if !eligible || runBytes+seg.size > target {
			flush()
		}
		if eligible {
			run = append(run, seg)
			runBytes += seg.size
		}
	}
	flush()
	return groups
}

// mergeGroup rewrites the group's events into one segment and swaps it in.
// It returns the number of input segments consumed (0 on failure).
func (s *Store) mergeGroup(g []*segment) (int, error) {
	if len(g) < 2 {
		return 0, nil
	}
	first := g[0]
	tmpSeg := first.path + tmpSuffix
	tmpIdx := idxPathFor(first.path) + tmpSuffix
	os.Remove(tmpSeg)
	w, err := newSegWriterAt(tmpSeg, tmpIdx, first.idx.firstSeq)
	if err != nil {
		return 0, err
	}
	fail := func(err error) (int, error) {
		w.f.Close()
		os.Remove(tmpSeg)
		os.Remove(tmpIdx)
		return 0, err
	}
	var scratch []netip.Prefix
	for _, seg := range g {
		if _, err := seg.walk(0, seg.idx.lastSeq, 0, false, &scratch, func(ev Event) error {
			_, err := w.append(ev)
			return err
		}); err != nil {
			return fail(err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return fail(fmt.Errorf("eventstore: fsync %s: %w", tmpSeg, err))
	}
	if err := w.f.Close(); err != nil {
		os.Remove(tmpSeg)
		return 0, fmt.Errorf("eventstore: close %s: %w", tmpSeg, err)
	}
	idx := buildIndex(&w.bld, w.dicts, w.size)
	if err := writeIndexFile(tmpIdx, w.baseSeq, idx); err != nil {
		os.Remove(tmpSeg)
		return 0, err
	}
	// Crash-ordered swap: data first (a stale sidecar is detected by its
	// size mismatch and rebuilt), then index, then the superseded inputs
	// (leftovers are fully contained and removed at the next open).
	if err := os.Rename(tmpSeg, first.path); err != nil {
		os.Remove(tmpSeg)
		os.Remove(tmpIdx)
		return 0, fmt.Errorf("eventstore: %w", err)
	}
	if err := os.Rename(tmpIdx, idxPathFor(first.path)); err != nil {
		os.Remove(tmpIdx)
		return 0, fmt.Errorf("eventstore: %w", err)
	}
	mergedSeg, err := mapSegment(first.path, w.size, idx, 0)
	if err != nil {
		return 0, err
	}
	for _, seg := range g[1:] {
		seg.removeFiles()
	}

	s.mu.Lock()
	// The group is still present and contiguous: retention pauses while
	// compacting and nothing else mutates the sealed list.
	start := -1
	for i, seg := range s.segs {
		if seg == g[0] {
			start = i
			break
		}
	}
	if start < 0 || start+len(g) > len(s.segs) {
		s.mu.Unlock()
		mergedSeg.release()
		return 0, fmt.Errorf("eventstore: compaction group vanished")
	}
	old := make([]*segment, len(g))
	copy(old, s.segs[start:start+len(g)])
	s.segs = append(s.segs[:start+1], s.segs[start+len(g):]...)
	s.segs[start] = mergedSeg
	s.mu.Unlock()
	for _, seg := range old {
		seg.release() // the store's own reference
	}
	s.metrics.compactions.Inc()
	s.metrics.compactedSegs.Add(int64(len(g)))
	return len(g), nil
}

// compactLoop runs Compact every interval.
func (s *Store) compactLoop(interval time.Duration) {
	defer close(s.compactDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-t.C:
			if _, err := s.Compact(); err == ErrClosed {
				return
			}
		}
	}
}
