package eventstore

import (
	"bytes"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzSegment feeds arbitrary bytes to the segment open path, the scan
// that derives every segment's index, as both a tail (repairing) and a
// read-only open: whatever a disk hands back, the
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

// Regenerate the committed seed corpus with:
//
//	go test ./internal/eventstore -run TestFuzzSeedCorpus -update-corpus
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the seed corpus under testdata/fuzz")

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

func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
