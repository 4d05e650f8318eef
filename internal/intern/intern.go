// Package intern provides lock-sharded canonicalization tables for the
// detection hot path. A month of RIS updates repeats the same AS paths,
// aggregators and peer keys millions of times; interning makes every
// repeat share one allocation, which is what lets the decode scratch in
// internal/bgp hand out retained values without cloning.
//
// Tables are keyed by raw bytes (typically the attribute's wire encoding)
// so the hit path performs zero allocations: the map lookup uses the
// compiler's []byte→string conversion optimization, and the per-shard
// RWMutex keeps concurrent chunk decoders out of each other's way.
package intern

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// shardCount shards the key space to keep lock contention negligible even
// with every core decoding. Power of two so the shard pick is a mask.
const shardCount = 32

type shard[V any] struct {
	mu     sync.RWMutex
	m      map[string]V
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Table is a lock-sharded intern table mapping byte keys to canonical
// values. The zero value is not usable; construct with NewTable.
type Table[V any] struct {
	shards [shardCount]shard[V]
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
		t.shards[i].m = make(map[string]V)
	}
	return t
}

// shardSeed keys the shard pick: the runtime's hardware hash, a few
// nanoseconds for an AS path's wire bytes.
var shardSeed = maphash.MakeSeed()

// GetErr returns the canonical value for key, building it with mk(key) on
// first sight. mk runs under the shard's write lock, at most once per key
// it succeeds on: a failed construction is not cached, the error is
// returned and the key stays absent, so a later lookup retries. mk receives
// the key so callers can pass a plain function instead of a capturing
// closure — the lookup itself then allocates nothing on a hit.
func (t *Table[V]) GetErr(key []byte, mk func(key []byte) (V, error)) (V, error) {
	s := &t.shards[maphash.Bytes(shardSeed, key)&(shardCount-1)]
	s.mu.RLock()
	v, ok := s.m[string(key)] // no-alloc lookup: compiler-optimized conversion
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
		return v, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[string(key)]; ok {
		s.hits.Add(1)
		return v, nil
	}
	v, err := mk(key)
	if err != nil {
		var zero V
		return zero, err
	}
	s.m[string(key)] = v
	s.misses.Add(1)
	return v, nil
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
