// Package intern provides lock-sharded canonicalization tables for the
// detection hot path. A month of RIS updates repeats the same AS paths,
// aggregators and peer keys millions of times; interning makes every
// repeat share one allocation, which is what lets the decode scratch in
// internal/bgp hand out retained values without cloning.
//
// Tables are keyed by raw bytes (typically the attribute's wire encoding)
// so the hit path performs zero allocations: the map lookup uses the
// compiler's []byte→string conversion optimization, and the per-shard
// RWMutex keeps concurrent chunk decoders out of each other's way. Every
// entry also gets a dense id, so a consumer can index its own per-value
// state by slice instead of by map.
package intern

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// shardCount shards the key space to keep lock contention negligible even
// with every core decoding. Power of two so the shard pick is a mask.
const shardCount = 32

// entry is one canonical value and its id.
type entry[V any] struct {
	v  V
	id uint32
}

type shard[V any] struct {
	mu     sync.RWMutex
	m      map[string]entry[V]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Table is a lock-sharded intern table mapping byte keys to canonical
// values. The zero value is not usable; construct with NewTable.
type Table[V any] struct {
	shards [shardCount]shard[V]
	n      atomic.Uint32 // entries; the last id handed out
}

// Stats is a point-in-time snapshot of a table's lookup counters.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// NewTable returns an empty table.
func NewTable[V any]() *Table[V] {
	t := &Table[V]{}
	for i := range t.shards {
		t.shards[i].m = make(map[string]entry[V])
	}
	return t
}

// shardSeed keys the shard pick: the runtime's hardware hash, a few
// nanoseconds for an AS path's wire bytes.
var shardSeed = maphash.MakeSeed()

// GetErr returns the canonical value for key and its id, building the
// value with mk(key) on first sight. Ids number a table's entries densely
// from 1 in insertion order; 0 is never an id. mk runs under the shard's
// write lock, at most once per key it succeeds on: a failed construction
// is not cached, the error is returned and the key stays absent (and takes
// no id), so a later lookup retries. mk receives the key so callers can
// pass a plain function instead of a capturing closure — the lookup itself
// then allocates nothing on a hit.
func (t *Table[V]) GetErr(key []byte, mk func(key []byte) (V, error)) (V, uint32, error) {
	s := &t.shards[maphash.Bytes(shardSeed, key)&(shardCount-1)]
	s.mu.RLock()
	e, ok := s.m[string(key)] // no-alloc lookup: compiler-optimized conversion
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
		return e.v, e.id, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[string(key)]; ok {
		s.hits.Add(1)
		return e.v, e.id, nil
	}
	v, err := mk(key)
	if err != nil {
		var zero V
		return zero, 0, err
	}
	e = entry[V]{v: v, id: t.n.Add(1)}
	s.m[string(key)] = e
	s.misses.Add(1)
	return v, e.id, nil
}

// Stats sums the per-shard counters.
func (t *Table[V]) Stats() Stats {
	var st Stats
	for i := range t.shards {
		s := &t.shards[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
	}
	return st
}
