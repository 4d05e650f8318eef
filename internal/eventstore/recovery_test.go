package eventstore

// Crash-recovery coverage: every corruption a torn write, or an earlier
// build's merge of small segments interrupted mid-way, can leave behind —
// partial tail frames, flipped bytes, inconsistent frames, quarantined
// headers, superseded leftovers — must be detected at Open and either
// repaired (newest segment) or refused (interior segments, where silent
// repair would fabricate gaps).

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildCrashedStore appends n events across small segments and abandons
// the store mid-flight (the tail neither sealed nor fsynced), returning
// the sorted segment file names.
func buildCrashedStore(t *testing.T, dir string, n int) []string {
	t.Helper()
	st, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, testEvents(n))
	if err := st.Abandon(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("want >= 3 segments for recovery tests, got %d", len(names))
	}
	return names
}

func damageFile(t *testing.T, path string, f func(data []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reopenAndCheck opens dir and requires a clean contiguous store whose
// events match the testEvents prefix of the recovered length.
func reopenAndCheck(t *testing.T, dir string, wantLastAtLeast, wantLastAtMost uint64) uint64 {
	t.Helper()
	st, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	last := st.LastSeq()
	if last < wantLastAtLeast || last > wantLastAtMost {
		t.Fatalf("recovered LastSeq = %d, want within [%d, %d]", last, wantLastAtLeast, wantLastAtMost)
	}
	checkEvents(t, replayAll(t, st), testEvents(int(last)))
	// The store must accept appends immediately after recovery.
	more := testEvents(int(last) + 1)
	if err := st.Append(more[last]); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	return last
}

func TestRecoverTornTail(t *testing.T) {
	const n = 300
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string, names []string)
		// minLast bounds how much data may be lost: everything before
		// the damaged tail region must survive.
		minLast func(names []string, dir string, t *testing.T) uint64
	}{
		{
			name: "truncate-mid-frame",
			damage: func(t *testing.T, dir string, names []string) {
				tail := filepath.Join(dir, names[len(names)-1])
				damageFile(t, tail, func(data []byte) []byte {
					return data[:len(data)-7]
				})
			},
		},
		{
			name: "flip-byte-in-last-frame",
			damage: func(t *testing.T, dir string, names []string) {
				tail := filepath.Join(dir, names[len(names)-1])
				damageFile(t, tail, func(data []byte) []byte {
					data[len(data)-3] ^= 0xff
					return data
				})
			},
		},
		{
			name: "garbage-appended-after-tail",
			damage: func(t *testing.T, dir string, names []string) {
				tail := filepath.Join(dir, names[len(names)-1])
				damageFile(t, tail, func(data []byte) []byte {
					return append(data, 0xde, 0xad, 0xbe, 0xef, 0x01)
				})
			},
		},
		{
			name: "truncate-to-header-only",
			damage: func(t *testing.T, dir string, names []string) {
				tail := filepath.Join(dir, names[len(names)-1])
				damageFile(t, tail, func(data []byte) []byte {
					return data[:segHeaderLen]
				})
			},
		},
		{
			name: "tail-header-flipped",
			damage: func(t *testing.T, dir string, names []string) {
				tail := filepath.Join(dir, names[len(names)-1])
				damageFile(t, tail, func(data []byte) []byte {
					data[2] ^= 0xff // inside the magic
					return data
				})
			},
		},
		{
			name: "tail-shorter-than-header",
			damage: func(t *testing.T, dir string, names []string) {
				tail := filepath.Join(dir, names[len(names)-1])
				damageFile(t, tail, func(data []byte) []byte {
					return data[:10]
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			names := buildCrashedStore(t, dir, n)
			// Every event before the tail segment must survive any
			// tail damage.
			tailFirst := mustBaseSeq(t, names[len(names)-1])
			tc.damage(t, dir, names)
			last := reopenAndCheck(t, dir, tailFirst-1, n)
			t.Logf("recovered %d/%d events", last, n)
		})
	}
}

func mustBaseSeq(t *testing.T, name string) uint64 {
	t.Helper()
	var base uint64
	if _, err := fmtSscanHex(strings.TrimSuffix(name, segSuffix), &base); err != nil {
		t.Fatal(err)
	}
	return base
}

func fmtSscanHex(s string, v *uint64) (int, error) {
	var x uint64
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			x = x<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			x = x<<4 | uint64(c-'a'+10)
		default:
			return 0, errors.New("bad hex segment name: " + s)
		}
	}
	*v = x
	return 1, nil
}

func TestInteriorCorruptionRefusesOpen(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string, names []string)
	}{
		{
			name: "interior-header-flipped",
			damage: func(t *testing.T, dir string, names []string) {
				damageFile(t, filepath.Join(dir, names[0]), func(data []byte) []byte {
					data[0] ^= 0xff
					return data
				})
			},
		},
		{
			name: "interior-frame-corrupt-no-index",
			damage: func(t *testing.T, dir string, names []string) {
				damageFile(t, filepath.Join(dir, names[0]), func(data []byte) []byte {
					data[len(data)/2] ^= 0xff
					return data
				})
			},
		},
		{
			name: "interior-truncated-no-index",
			damage: func(t *testing.T, dir string, names []string) {
				damageFile(t, filepath.Join(dir, names[0]), func(data []byte) []byte {
					return data[:len(data)-20]
				})
			},
		},
		{
			name: "gap-between-segments",
			damage: func(t *testing.T, dir string, names []string) {
				// Remove an interior segment entirely: the survivors are
				// individually valid but no longer contiguous.
				if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			names := buildCrashedStore(t, dir, 300)
			tc.damage(t, dir, names)
			if _, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10}); err == nil {
				t.Fatal("open of a store with interior damage succeeded; refusal expected")
			} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, errBadHeader) {
				t.Fatalf("open error = %v, want corruption", err)
			}
		})
	}
}

func TestTailHeaderQuarantine(t *testing.T) {
	dir := t.TempDir()
	names := buildCrashedStore(t, dir, 300)
	tail := filepath.Join(dir, names[len(names)-1])
	tailFirst := mustBaseSeq(t, names[len(names)-1])
	damageFile(t, tail, func(data []byte) []byte {
		data[9] ^= 0xff // inside baseSeq, breaks the header CRC
		return data
	})
	last := reopenAndCheck(t, dir, tailFirst-1, tailFirst-1)
	if last != tailFirst-1 {
		t.Fatalf("recovered LastSeq = %d, want %d", last, tailFirst-1)
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantined files = %v (err %v), want exactly one", quarantined, err)
	}
}

func TestRecoveryMetricsMove(t *testing.T) {
	dir := t.TempDir()
	names := buildCrashedStore(t, dir, 300)
	tail := filepath.Join(dir, names[len(names)-1])
	damageFile(t, tail, func(data []byte) []byte {
		return data[:len(data)-5]
	})
	m := NewMetrics(nil)
	st, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if m.repairs.Value() == 0 {
		t.Fatal("repairs counter never moved")
	}
	if m.truncatedBytes.Value() == 0 {
		t.Fatal("truncated bytes counter never moved")
	}
}

func TestReadOnlyReportsTornBytes(t *testing.T) {
	dir := t.TempDir()
	names := buildCrashedStore(t, dir, 300)
	tail := filepath.Join(dir, names[len(names)-1])
	damageFile(t, tail, func(data []byte) []byte {
		return append(data, 1, 2, 3, 4, 5, 6, 7)
	})
	st, err := Open(Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	infos := st.SegmentInfos()
	torn := int64(0)
	for _, info := range infos {
		torn += info.TornBytes
	}
	if torn == 0 {
		t.Fatal("read-only open reported no torn bytes on a damaged tail")
	}
}

// copyMergedSegment writes evs into a fresh one-segment store and copies
// its data file over dir's segment name: the merged segment that earlier
// builds, which merged runs of small segments, renamed over the first
// input before deleting the rest.
func copyMergedSegment(t *testing.T, dir, name string, evs []Event) {
	t.Helper()
	src := t.TempDir()
	st, err := Open(Options{Dir: src, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, evs)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	merged, err := segmentFiles(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || merged[0] != name {
		t.Fatalf("merged store holds %v, want one segment %s", merged, name)
	}
	data, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// smallSegmentStore writes testEvents(600) in 2 KiB segments and returns
// the directory and the sorted segment names.
func smallSegmentStore(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, testEvents(600))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 4 {
		t.Fatalf("want >= 4 segments, got %d", len(names))
	}
	return dir, names
}

// TestCoveredSegmentRemoved: the merged segment over the first input with
// the other inputs still on disk — the state a crash between an earlier
// build's merged rename and its input deletes left behind. Open removes
// every segment its predecessor covers.
func TestCoveredSegmentRemoved(t *testing.T) {
	dir, names := smallSegmentStore(t)
	copyMergedSegment(t, dir, names[0], testEvents(600))
	reopenAndCheck(t, dir, 600, 600)
	for _, name := range names[1:] {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: covered segment not removed (stat err %v)", name, err)
		}
	}
}

// TestMergedSegmentReopens: a merge by an earlier build that finished
// except for the sidecar rename leaves the merged data file next to the
// first input's sidecar, which describes a shorter file. Open goes by the
// data file alone and deletes the stale sidecar.
func TestMergedSegmentReopens(t *testing.T) {
	dir, names := smallSegmentStore(t)
	for _, name := range names[1:] {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	copyMergedSegment(t, dir, names[0], testEvents(600))
	stale, err := os.ReadFile("testdata/sidecar-v1/0000000000000001.idx")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "0000000000000001.idx"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, 600, 600)
	requireOnlySegments(t, dir)
}

// TestEarlierBuildStoreOpens: testdata/sidecar-v1 is a four-segment store
// of testEvents(90) written by an earlier build, which kept an index
// sidecar (".idx") next to every segment; a stray ".idx.tmp" stands for a
// sidecar write a crash cut short. A read-only open serves the events and
// leaves the directory byte-identical. A read-write open serves them and
// deletes every leftover; its first append continues the newest segment,
// and retention then drops a segment without leaving an orphan.
func TestEarlierBuildStoreOpens(t *testing.T) {
	dir := copyDir(t, "testdata/sidecar-v1")
	if err := os.WriteFile(filepath.Join(dir, "0000000000000046.idx.tmp"), []byte("torn sidecar"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := testEvents(91)
	before := dirSnapshot(t, dir)
	ro, err := Open(Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	checkEvents(t, scanAll(t, ro, Query{}), want[:90])
	checkEvents(t, replayAll(t, ro), want[:90])
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirSnapshot(t, dir); !maps.Equal(after, before) {
		t.Fatal("read-only open modified the store")
	}

	// The four segments hold 8183 bytes, so a 7 KiB budget drops the
	// first, and only the first, once the continued tail seals.
	st, err := Open(Options{Dir: dir, RetainBytes: 7 << 10})
	if err != nil {
		t.Fatal(err)
	}
	checkEvents(t, scanAll(t, st, Query{}), want[:90])
	checkEvents(t, replayAll(t, st), want[:90])
	requireOnlySegments(t, dir)
	appendAll(t, st, want[90:])
	infos := st.SegmentInfos()
	if tail := infos[len(infos)-1]; tail.Sealed || filepath.Base(tail.Path) != "0000000000000046.seg" || tail.LastSeq != 91 {
		t.Fatalf("append did not continue the newest segment: %+v", tail)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	requireOnlySegments(t, dir)
	st, err = Open(Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if first := st.FirstSeq(); first != 0x1a {
		t.Fatalf("FirstSeq = %d after retention, want %d", first, 0x1a)
	}
	checkEvents(t, replayAll(t, st), want[0x1a-1:])
}

// damageEvent rewrites the body of event seq's frame in the segment image
// data and re-computes the frame CRC, so the frame still checks out. It
// returns the frame's byte range.
func damageEvent(t *testing.T, data []byte, seq uint64, damage func(body []byte)) (from, to int64) {
	t.Helper()
	scanFrames(data, segHeaderLen, func(kind byte, body []byte, off int64) bool {
		if kind != fkEvent || le.Uint64(body) != seq {
			return true
		}
		damage(body)
		le.PutUint32(data[off+5:], frameCRC(kind, body))
		from, to = off, off+frameHeaderLen+int64(len(body))
		return false
	})
	if to == 0 {
		t.Fatalf("no frame of event %d", seq)
	}
	return from, to
}

// TestInconsistentEventRejected: an event frame whose CRC checks out but
// which carries a wrong sequence number, or a prefix id beyond the
// dictionaries, is corruption. Open refuses it in an interior segment; a
// read-write Open truncates the newest segment back to the event before
// it; and once written into the mapping of an open store, every read that
// reaches it fails with ErrCorrupt without delivering an event out of
// sequence.
func TestInconsistentEventRejected(t *testing.T) {
	src := t.TempDir()
	st, err := Open(Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(40)
	appendAll(t, st, evs[:24])
	if err := st.seal(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, evs[24:])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Events 6 (in segment 1..24) and 30 (in segment 25..40) both carry
	// two prefixes.
	damages := map[string]func(body []byte){
		"wrong-seq":       func(body []byte) { le.PutUint64(body, le.Uint64(body)+100) },
		"prefix-id-range": func(body []byte) { le.PutUint32(body[eventFixedLen:], 1000) },
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			corrupt := func(dir string, base, seq uint64) {
				damageFile(t, filepath.Join(dir, segName(base)), func(data []byte) []byte {
					damageEvent(t, data, seq, damage)
					return data
				})
			}
			for _, ro := range []bool{false, true} {
				dir := copyDir(t, src)
				corrupt(dir, 1, 6)
				if _, err := Open(Options{Dir: dir, ReadOnly: ro}); !errors.Is(err, ErrCorrupt) {
					t.Errorf("interior segment, read-only %v: Open err = %v, want ErrCorrupt", ro, err)
				}
			}

			dir := copyDir(t, src)
			corrupt(dir, 25, 30)
			reopenAndCheck(t, dir, 29, 29)

			dir = copyDir(t, src)
			st, err := Open(Options{Dir: dir, ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			path := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			from, to := damageEvent(t, data, 6, damage)
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(data[from:to], from); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(st.segs[0].data[from:to], data[from:to]) {
				t.Skip("segments are heap copies here: writes after Open are not visible")
			}
			reads := map[string]func(func(Event) error) error{
				"scan":      func(fn func(Event) error) error { return st.Scan(Query{}, fn) },
				"scan-kind": func(fn func(Event) error) error { return st.Scan(Query{Kind: KindMRT}, fn) },
				"replay":    func(fn func(Event) error) error { return st.Replay(0, 40, fn) },
			}
			for read, run := range reads {
				next := uint64(1)
				err := run(func(ev Event) error {
					if ev.Seq < next || ev.Seq >= 6 {
						t.Errorf("%s: delivered seq %d after %d", read, ev.Seq, next-1)
					}
					next = ev.Seq + 1
					return nil
				})
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: err = %v, want ErrCorrupt", read, err)
				}
			}
			// The newest segment is intact.
			var got []Event
			if err := st.Replay(24, 40, func(ev Event) error {
				got = append(got, owned(ev))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			checkEvents(t, got, evs[24:])
		})
	}
}
