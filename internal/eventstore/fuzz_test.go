package eventstore

import (
	"bytes"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzSegment feeds arbitrary bytes to the segment open path as both a
// tail (repairing) and a read-only open: whatever a disk hands back, the
// store must never panic, never loop, and — when it does open — serve a
// scannable, internally consistent segment.
func FuzzSegment(f *testing.F) {
	seeds := segmentSeeds(f)
	for _, name := range sortedNames(seeds) {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ro := range []bool{true, false} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(Options{Dir: dir, ReadOnly: ro})
			if err != nil {
				continue
			}
			// A successful open must yield a gap-free, scannable store.
			next := st.FirstSeq()
			scanErr := st.Scan(Query{}, func(ev Event) error {
				if ev.Seq != next {
					t.Fatalf("scan gap: got seq %d, want %d", ev.Seq, next)
				}
				next++
				return nil
			})
			if scanErr != nil {
				t.Fatalf("scan of opened store: %v", scanErr)
			}
			if st.LastSeq() != 0 && next != st.LastSeq()+1 {
				t.Fatalf("scan covered up to %d, LastSeq is %d", next-1, st.LastSeq())
			}
			st.Close()
		}
	})
}

// Regenerate the committed seed corpora with:
//
//	go test ./internal/eventstore -run 'TestFuzzSeedCorpus|TestIndexSeedCorpus' -update-corpus
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the seed corpora under testdata/fuzz")

const corpusDir = "testdata/fuzz/FuzzSegment"

// segmentSeeds builds well-formed and near-miss segment images so
// mutation starts from deep inside the format (valid header CRCs, real
// dictionary frames) instead of rediscovering the magic from zeros.
func segmentSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	mk := func(n int) []byte {
		dir := t.(interface{ TempDir() string }).TempDir()
		st, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		evs := testEvents(n)
		for _, ev := range evs {
			if err := st.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Abandon(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		// Pin the creation timestamp (and re-CRC the header) so the
		// seeds are byte-stable across regenerations.
		le.PutUint64(data[16:], 0x1122334455667788)
		le.PutUint32(data[28:], crc32.Checksum(data[:28], castagnoli))
		return data
	}

	full := mk(40)
	seeds := map[string][]byte{
		"seed-empty":       {},
		"seed-header-only": full[:segHeaderLen],
		"seed-small":       mk(3),
		"seed-full":        full,
		"seed-torn":        full[:len(full)-5],
	}
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0xff
	seeds["seed-flipped"] = flipped
	return seeds
}

func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

func parseCorpusEntry(t *testing.T, raw []byte) []byte {
	t.Helper()
	lines := strings.SplitN(string(raw), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("bad corpus header %q", lines[0])
	}
	body := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("bad corpus literal: %v", err)
	}
	return []byte(s)
}

// TestFuzzSeedCorpus keeps the committed seed corpus in sync with
// segmentSeeds and proves the interesting seeds actually open: the
// fuzzer starts from inputs that reach past the header checks.
func TestFuzzSeedCorpus(t *testing.T) {
	seeds := segmentSeeds(t)
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			if err := os.WriteFile(filepath.Join(corpusDir, name), corpusEntry(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range seeds {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(corpusDir, name))
			if err != nil {
				t.Fatalf("%v (run with -update-corpus to regenerate)", err)
			}
			if got := parseCorpusEntry(t, raw); !bytes.Equal(got, data) {
				t.Fatal("committed corpus entry diverges from segmentSeeds (run with -update-corpus)")
			}
			if name == "seed-full" || name == "seed-small" {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
					t.Fatal(err)
				}
				st, err := Open(Options{Dir: dir, ReadOnly: true})
				if err != nil {
					t.Fatalf("well-formed seed does not open: %v", err)
				}
				if st.LastSeq() == 0 {
					t.Fatal("well-formed seed opened empty")
				}
				st.Close()
			}
		})
	}
}

// FuzzIndex feeds arbitrary sidecar bodies, framed and checksummed so every
// mutation gets past the CRCs, to the open and read paths of a valid
// two-segment store: the fuzzed sidecar belongs to the first segment, the
// second keeps its own. Whatever a sidecar claims, Open, Scan and Replay
// must never panic, and every read either fails with ErrCorrupt or yields
// exactly the sequence numbers FirstSeq..LastSeq of its range, in order.
func FuzzIndex(f *testing.F) {
	files, seeds := indexSeeds(f)
	for _, name := range sortedNames(seeds) {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ro := range []bool{true, false} {
			st, err := Open(Options{Dir: writeIndexStore(t, files, frameIndex(1, body)), ReadOnly: ro})
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("open: %v, want nil or ErrCorrupt", err)
				}
				continue
			}
			first, last := st.FirstSeq(), st.LastSeq()
			checkRead(t, "scan", first, last, func(fn func(Event) error) error { return st.Scan(Query{}, fn) })
			checkRead(t, "replay", first, last, func(fn func(Event) error) error { return st.Replay(first-1, last, fn) })
			if last > first+1 {
				checkRead(t, "replay-inner", first+1, last-1, func(fn func(Event) error) error { return st.Replay(first, last-1, fn) })
			}
			st.Close()
		}
	})
}

// checkRead requires read to fail with ErrCorrupt or to yield exactly the
// sequence numbers lo..hi, in order.
func checkRead(t *testing.T, name string, lo, hi uint64, read func(func(Event) error) error) {
	t.Helper()
	next := lo
	err := read(func(ev Event) error {
		if ev.Seq != next {
			t.Fatalf("%s: got seq %d, want %d", name, ev.Seq, next)
		}
		next++
		return nil
	})
	switch {
	case errors.Is(err, ErrCorrupt):
	case err != nil:
		t.Fatalf("%s: %v, want nil or ErrCorrupt", name, err)
	case next != hi+1:
		t.Fatalf("%s: yielded seqs %d..%d, want %d..%d", name, lo, next-1, lo, hi)
	}
}

const indexCorpusDir = "testdata/fuzz/FuzzIndex"

// indexSeeds builds the FuzzIndex store — a sealed segment of testEvents
// 1..24 and one of 25..40, both with sidecars — and the sidecar bodies the
// fuzzer starts from: the first segment's real body and near misses of it.
func indexSeeds(t testing.TB) (files map[string][]byte, seeds map[string][]byte) {
	t.Helper()
	dir := t.(interface{ TempDir() string }).TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(40)
	appendAll(t, st, evs[:24])
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, evs[24:])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files = map[string][]byte{}
	for _, base := range []uint64{1, 25} {
		seg := filepath.Join(dir, segName(base))
		for _, p := range []string{seg, idxPathFor(seg)} {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(p)] = data
		}
	}
	idx, err := readIndexFile(filepath.Join(dir, "0000000000000001"+idxSuffix), 1)
	if err != nil {
		t.Fatal(err)
	}
	delete(files, "0000000000000001"+idxSuffix)
	body := func(mut func(idx *segIndex)) []byte {
		c := *idx
		c.offsets = append([]uint32(nil), idx.offsets...)
		mut(&c)
		return encodeIndex(1, &c)[idxHeaderLen+frameHeaderLen:]
	}
	valid := body(func(*segIndex) {})
	seeds = map[string][]byte{
		"seed-valid": valid,
		// Two ordinals map to each other's frames.
		"seed-swapped": body(func(c *segIndex) { c.offsets[3], c.offsets[4] = c.offsets[4], c.offsets[3] }),
		// The first segment claims to end early: the second no longer
		// follows it.
		"seed-short": body(func(c *segIndex) { c.offsets = c.offsets[:20]; c.lastSeq = 20 }),
		// Every ordinal points at the same frame.
		"seed-repeated": body(func(c *segIndex) {
			for i := range c.offsets {
				c.offsets[i] = c.offsets[0]
			}
		}),
		// Collector dictionary shorter than the ids events carry.
		"seed-short-dict": body(func(c *segIndex) { c.colls = c.colls[:1] }),
		"seed-no-events":  body(func(c *segIndex) { c.offsets = nil }),
		"seed-truncated":  valid[:len(valid)/2],
		// A version 1 body: the same fields followed by an empty posting
		// list and per-collector counts.
		"seed-v1-tail": append(append(append([]byte(nil), valid...), 0, 0, 0, 0), make([]byte, 8*len(idx.colls))...),
	}
	return files, seeds
}

// writeIndexStore writes the indexSeeds store files into a new directory,
// with sidecar as the first segment's sidecar, and returns the directory.
func writeIndexStore(t *testing.T, files map[string][]byte, sidecar []byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(idxPathFor(filepath.Join(dir, segName(1))), sidecar, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestIndexSeedCorpus keeps the committed FuzzIndex seed corpus in sync
// with indexSeeds (regenerate with -update-corpus) and pins what the
// valid seed exercises: its store opens without a rebuild.
func TestIndexSeedCorpus(t *testing.T) {
	files, seeds := indexSeeds(t)
	if *updateCorpus {
		if err := os.MkdirAll(indexCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			if err := os.WriteFile(filepath.Join(indexCorpusDir, name), corpusEntry(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range sortedNames(seeds) {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(indexCorpusDir, name))
			if err != nil {
				t.Fatalf("%v (run with -update-corpus to regenerate)", err)
			}
			if got := parseCorpusEntry(t, raw); !bytes.Equal(got, seeds[name]) {
				t.Fatal("committed corpus entry diverges from indexSeeds (run with -update-corpus)")
			}
		})
	}
	m := NewMetrics(nil)
	st, err := Open(Options{Dir: writeIndexStore(t, files, frameIndex(1, seeds["seed-valid"])), Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if m.repairs.Value() != 0 || st.LastSeq() != 40 {
		t.Fatalf("valid seed: %d repairs, LastSeq %d; want 0 and 40", m.repairs.Value(), st.LastSeq())
	}
}
