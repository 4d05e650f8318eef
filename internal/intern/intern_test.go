package intern

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestGetCanonicalizes(t *testing.T) {
	tab := NewTable[*[]byte]()
	mk := func(key []byte) (*[]byte, error) {
		b := append([]byte(nil), key...)
		return &b, nil
	}
	a, _, _ := tab.GetErr([]byte("path-1"), mk)
	b, _, _ := tab.GetErr([]byte("path-1"), mk)
	if a != b {
		t.Error("same key returned distinct values")
	}
	c, _, _ := tab.GetErr([]byte("path-2"), mk)
	if c == a {
		t.Error("distinct keys returned the same value")
	}
	if got := entries(tab); got != 2 {
		t.Errorf("entries = %d, want 2", got)
	}
}

// entries counts the keys tab holds.
func entries[V any](tab *Table[V]) int {
	n := 0
	for i := range tab.shards {
		n += len(tab.shards[i].m)
	}
	return n
}

// TestKeyDoesNotAliasCallerBuffer interns through a reused scratch buffer —
// the exact pattern the borrowed-slice decode path uses — and checks the
// table keeps its own copy of the key: mutating the buffer afterwards must
// not corrupt the table, and the original key must still hit.
func TestKeyDoesNotAliasCallerBuffer(t *testing.T) {
	tab := NewTable[uint32]()
	mk := func(key []byte) (uint32, error) { return binary.BigEndian.Uint32(key), nil }
	buf := []byte{0, 0, 0, 7}
	if got, _, _ := tab.GetErr(buf, mk); got != 7 {
		t.Fatalf("GetErr = %d, want 7", got)
	}
	// Reuse the buffer for a different key, as a pooled decoder would.
	binary.BigEndian.PutUint32(buf, 9)
	if got, _, _ := tab.GetErr(buf, mk); got != 9 {
		t.Fatalf("GetErr after reuse = %d, want 9", got)
	}
	if got, _, _ := tab.GetErr([]byte{0, 0, 0, 7}, mk); got != 7 {
		t.Errorf("original key corrupted by buffer reuse: got %d, want 7", got)
	}
	if st := tab.Stats(); entries(tab) != 2 || st.Misses != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v with %d entries, want 2 entries, 2 misses, 1 hit", st, entries(tab))
	}
}

// TestInternedValuesSurviveOriginals checks the equality/aliasing property
// end to end: values interned from short-lived buffers stay intact after
// the buffers are dead and the GC has run.
func TestInternedValuesSurviveOriginals(t *testing.T) {
	tab := NewTable[*string]()
	mk := func(key []byte) (*string, error) {
		s := string(key)
		return &s, nil
	}
	ptrs := make([]*string, 64)
	for i := range ptrs {
		key := []byte(fmt.Sprintf("as-path-%d", i)) // dies after this iteration
		ptrs[i], _, _ = tab.GetErr(key, mk)
	}
	runtime.GC()
	runtime.GC()
	for i, p := range ptrs {
		want := fmt.Sprintf("as-path-%d", i)
		if *p != want {
			t.Fatalf("interned value %d = %q, want %q", i, *p, want)
		}
		if again, _, _ := tab.GetErr([]byte(want), mk); again != p {
			t.Fatalf("re-lookup %d returned a different pointer", i)
		}
	}
}

func TestGetErrDoesNotCacheFailures(t *testing.T) {
	tab := NewTable[int]()
	boom := errors.New("boom")
	calls := 0
	failing := func(key []byte) (int, error) { calls++; return 0, boom }
	if _, _, err := tab.GetErr([]byte("k"), failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := tab.GetErr([]byte("k"), failing); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want boom", err)
	}
	if calls != 2 {
		t.Errorf("failed construction was cached: %d calls, want 2", calls)
	}
	ok := func(key []byte) (int, error) { return len(key), nil }
	v, _, err := tab.GetErr([]byte("k"), ok)
	if err != nil || v != 1 {
		t.Fatalf("GetErr after failures = (%d, %v), want (1, nil)", v, err)
	}
	if st := tab.Stats(); entries(tab) != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v with %d entries, want 1 entry, 1 miss", st, entries(tab))
	}
}

func TestStatsHitRate(t *testing.T) {
	tab := NewTable[int]()
	mk := func(key []byte) (int, error) { return int(key[0]), nil }
	keys := [][]byte{{1}, {2}, {3}, {4}}
	for round := 0; round < 5; round++ {
		for _, k := range keys {
			if got, _, _ := tab.GetErr(k, mk); got != int(k[0]) {
				t.Fatalf("GetErr(%v) = %d", k, got)
			}
		}
	}
	st := tab.Stats()
	if st.Misses != uint64(len(keys)) {
		t.Errorf("misses = %d, want %d", st.Misses, len(keys))
	}
	if st.Hits != uint64(4*len(keys)) {
		t.Errorf("hits = %d, want %d", st.Hits, 4*len(keys))
	}
	if rate := float64(st.Hits) / float64(st.Hits+st.Misses); rate != 0.8 {
		t.Errorf("hit rate = %v, want 0.8", rate)
	}
}

// TestConcurrentGet hammers one table from many goroutines over an
// overlapping key set (run under -race in CI) and checks every goroutine
// observed the canonical pointer per key.
func TestConcurrentGet(t *testing.T) {
	tab := NewTable[*uint64]()
	mk := func(key []byte) (*uint64, error) {
		v := binary.BigEndian.Uint64(key)
		return &v, nil
	}
	const (
		workers = 8
		keys    = 128
		rounds  = 200
	)
	got := make([][]*uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*uint64, keys)
			var key [8]byte
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					binary.BigEndian.PutUint64(key[:], uint64(k*7919))
					p, _, _ := tab.GetErr(key[:], mk)
					if got[w][k] == nil {
						got[w][k] = p
					} else if got[w][k] != p {
						t.Errorf("worker %d key %d: pointer changed", w, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		for w := 1; w < workers; w++ {
			if got[w][k] != got[0][k] {
				t.Fatalf("key %d: workers disagree on canonical pointer", k)
			}
		}
	}
	st := tab.Stats()
	if entries(tab) != keys || st.Misses != keys {
		t.Errorf("stats = %+v with %d entries, want %d entries and misses", st, entries(tab), keys)
	}
	if want := uint64(workers*rounds*keys - keys); st.Hits != want {
		t.Errorf("hits = %d, want %d", st.Hits, want)
	}
}

// TestIDsAreDense: a table numbers its entries 1, 2, … in insertion
// order, a repeat lookup returns its key's id, and a failed construction
// takes none; under concurrent first sights the ids are still a
// permutation of 1..n.
func TestIDsAreDense(t *testing.T) {
	tab := NewTable[int]()
	mk := func(key []byte) (int, error) {
		if key[0] == 0 {
			return 0, errors.New("refused")
		}
		return int(key[0]), nil
	}
	for i, k := range []byte{5, 0, 9, 5, 0, 7, 9} {
		_, id, err := tab.GetErr([]byte{k}, mk)
		want := map[byte]uint32{5: 1, 9: 2, 7: 3}[k]
		if id != want || (err != nil) != (k == 0) {
			t.Errorf("lookup %d of key %d: id %d, err %v; want id %d", i, k, id, err, want)
		}
	}

	tab = NewTable[int]()
	const workers, keys = 4, 256
	ids := make([][keys]uint32, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				_, ids[w][(k+w*61)%keys], _ = tab.GetErr([]byte{byte((k + w*61) % keys)}, mk)
			}
		}()
	}
	wg.Wait()
	seen := make([]bool, keys+1)
	for k := range keys {
		id := ids[0][k]
		for w := 1; w < workers; w++ {
			if ids[w][k] != id {
				t.Fatalf("key %d: workers disagree on the id (%d, %d)", k, id, ids[w][k])
			}
		}
		if k == 0 {
			continue // refused
		}
		if id == 0 || id >= keys || seen[id] {
			t.Fatalf("key %d: id %d is not a fresh id in 1..%d", k, id, keys-1)
		}
		seen[id] = true
	}
}

// TestHitPathAllocates0 pins the zero-allocation contract of the hit path.
func TestHitPathAllocates0(t *testing.T) {
	tab := NewTable[int]()
	mk := func(key []byte) (int, error) { return len(key), nil }
	key := []byte("steady-state-key")
	tab.GetErr(key, mk)
	avg := testing.AllocsPerRun(1000, func() {
		if v, _, _ := tab.GetErr(key, mk); v != len(key) {
			t.Fatal("wrong value")
		}
	})
	if avg != 0 {
		t.Errorf("hit path allocates %v allocs/op, want 0", avg)
	}
}
