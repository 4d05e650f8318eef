package eventstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestParentSidecarRebuilt: testdata/sidecar-v1 is a four-segment store of
// testEvents(90) whose sidecars use version 1 of the sidecar format, which
// also carried (peer, prefix) postings and per-collector counts. Opening it
// rejects each old sidecar at the header check and rebuilds it from the
// data file, and the store reads back the events it was written with.
func TestParentSidecarRebuilt(t *testing.T) {
	const src = "testdata/sidecar-v1"
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	segs := 0
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(e.Name()) == idxSuffix {
			if v := le.Uint16(data[4:]); v != 1 {
				t.Fatalf("%s: fixture sidecar version %d, want 1", e.Name(), v)
			}
		} else {
			segs++
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := testEvents(90)
	for _, ro := range []bool{true, false} {
		m := NewMetrics(nil)
		st, err := Open(Options{Dir: dir, ReadOnly: ro, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		if ro {
			// A read-only open rebuilds in memory and writes nothing.
			if got := m.repairs.Value(); got != 0 {
				t.Fatalf("read-only open counted %d repairs", got)
			}
		} else if got := m.repairs.Value(); got != int64(segs) {
			t.Fatalf("repairs = %d, want one sidecar rebuild per segment (%d)", got, segs)
		}
		checkEvents(t, replayAll(t, st), want)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The rebuilt sidecars are current: the next open repairs nothing.
	m := NewMetrics(nil)
	st, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := m.repairs.Value(); got != 0 {
		t.Fatalf("second open counted %d repairs", got)
	}
	checkEvents(t, replayAll(t, st), want)
}

// TestReadRejectsInconsistentSidecar: a sidecar that passes every
// structural check but disagrees with the data file — an ordinal mapped to
// another event's frame, or a dictionary shorter than the ids the events
// carry — opens, and then every read that reaches an affected event fails
// with ErrCorrupt instead of delivering events out of sequence or with a
// field silently left empty.
func TestReadRejectsInconsistentSidecar(t *testing.T) {
	files, seeds := indexSeeds(t)
	cases := map[string]func(idx *segIndex){
		"swapped-offsets":  func(idx *segIndex) { idx.offsets[4], idx.offsets[5] = idx.offsets[5], idx.offsets[4] },
		"short-collectors": func(idx *segIndex) { idx.colls = idx.colls[:1] },
		"short-peers":      func(idx *segIndex) { idx.peers = idx.peers[:1] },
		"short-prefixes":   func(idx *segIndex) { idx.prefs = idx.prefs[:1] },
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			idx, err := decodeIndexBody(seeds["seed-valid"])
			if err != nil {
				t.Fatal(err)
			}
			damage(idx)
			m := NewMetrics(nil)
			st, err := Open(Options{Dir: writeIndexStore(t, files, encodeIndex(1, idx)), Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := m.repairs.Value(); got != 0 {
				t.Fatalf("the damaged sidecar was rebuilt (%d repairs); the read checks are not exercised", got)
			}
			reads := map[string]func(func(Event) error) error{
				"scan":      func(fn func(Event) error) error { return st.Scan(Query{}, fn) },
				"scan-kind": func(fn func(Event) error) error { return st.Scan(Query{Kind: KindMRT}, fn) },
				"replay":    func(fn func(Event) error) error { return st.Replay(0, 40, fn) },
			}
			for read, run := range reads {
				var seqs []uint64
				err := run(func(ev Event) error {
					seqs = append(seqs, ev.Seq)
					return nil
				})
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: err = %v after seqs %v, want ErrCorrupt", read, err, seqs)
				}
			}
			// The second segment's own sidecar is intact.
			var got []Event
			if err := st.Replay(24, 40, func(ev Event) error {
				got = append(got, ev)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			checkEvents(t, got, testEvents(40)[24:])
		})
	}
}

// rewriteSidecar replaces the sidecar of the segment starting at baseSeq
// in dir with a damaged copy that still passes every structural check.
func rewriteSidecar(t *testing.T, dir string, baseSeq uint64, damage func(idx *segIndex)) {
	t.Helper()
	path := idxPathFor(filepath.Join(dir, segName(baseSeq)))
	idx, err := readIndexFile(path, baseSeq)
	if err != nil {
		t.Fatal(err)
	}
	damage(idx)
	if err := writeIndexFile(path, baseSeq, idx); err != nil {
		t.Fatal(err)
	}
}

// openRepaired opens dir read-write and requires that exactly one sidecar
// was rebuilt and that the store holds testEvents(40), then appends event
// 41.
func openRepaired(t *testing.T, dir string) {
	t.Helper()
	m := NewMetrics(nil)
	st, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := m.repairs.Value(); got != 1 {
		t.Errorf("repairs = %d, want 1: the damaged sidecar was trusted", got)
	}
	if got := st.LastSeq(); got != 40 {
		t.Fatalf("LastSeq = %d, want 40", got)
	}
	checkEvents(t, replayAll(t, st), testEvents(40))
	if err := st.Append(testEvents(41)[40]); err != nil {
		t.Fatalf("append seq 41: %v", err)
	}
}

// TestSidecarDroppingTailEventsRebuilt: a sidecar of the newest segment
// (events 25..40) that leaves out its last four events, while still
// recording the data file's size, is rebuilt from the data file. Trusting
// it would lose events 37..40 silently and let the next appends reuse
// their sequence numbers.
func TestSidecarDroppingTailEventsRebuilt(t *testing.T) {
	files, seeds := indexSeeds(t)
	dir := writeIndexStore(t, files, frameIndex(1, seeds["seed-valid"]))
	rewriteSidecar(t, dir, 25, func(idx *segIndex) {
		idx.offsets = idx.offsets[:12]
		idx.lastSeq = 36
	})
	openRepaired(t, dir)
}

// TestSidecarOverlongRangeRebuilt: a sidecar of the first segment (events
// 1..24) that claims to run through seq 40 is rebuilt from the data file.
// Trusting it would make the next segment (25..40) look like a leftover
// the first segment supersedes, and Open would delete it.
func TestSidecarOverlongRangeRebuilt(t *testing.T) {
	files, seeds := indexSeeds(t)
	dir := writeIndexStore(t, files, frameIndex(1, seeds["seed-valid"]))
	rewriteSidecar(t, dir, 1, func(idx *segIndex) {
		last := idx.offsets[len(idx.offsets)-1]
		for len(idx.offsets) < 40 {
			idx.offsets = append(idx.offsets, last)
		}
		idx.lastSeq = 40
	})
	openRepaired(t, dir)
	if _, err := os.Stat(filepath.Join(dir, segName(25))); err != nil {
		t.Fatalf("segment 25..40: %v", err)
	}
}
