package zombie

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/mrt"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
)

// This file is the parallel counterpart of lifespan.go: RIB dumps are
// decoded concurrently in record-aligned chunks by the pipeline engine,
// tracked RIB records are routed to prefix-hashed shards, each shard builds
// its slice of the observation series lock-free in stream order, and the
// shards merge into the same report the sequential tracker produces. The
// differential harness in internal/pipeline asserts the equivalence on
// randomized scenarios.

// shardOfPrefix routes a prefix to its shard. FNV-1a keeps the assignment
// stable across processes (no per-run hash seed).
func shardOfPrefix(p netip.Prefix, n int) int {
	h := fnv.New64a()
	a16 := p.Addr().As16()
	h.Write(a16[:])
	h.Write([]byte{byte(p.Bits())})
	return int(h.Sum64() % uint64(n))
}

// ribChunk is a per-chunk accumulator for RIB dump streams: the peer index
// tables of the chunk plus the tracked RIB records, each remembering how
// many tables preceded it inside the chunk (0 = the table is in an earlier
// chunk).
type ribChunk struct {
	tables []*mrt.PeerIndexTable
	items  []ribItem
}

type ribItem struct {
	tablesBefore int
	rib          *mrt.RIB
}

// trackLifespansParallel is the pipeline counterpart of TrackLifespans.
// Chunked decode breaks the "RIB entries follow their PeerIndexTable in the
// same file" invariant, so every shard walks the chunk list of each file in
// order, carrying the effective table across chunk boundaries, and applies
// only its own prefixes — cheap, lock-free, and order-identical.
func trackLifespansParallel(dumps map[string][]byte, intervals []beacon.Interval, cfg LifespanConfig) (*LifespanReport, error) {
	track := make(TrackSet)
	for _, iv := range intervals {
		track[iv.Prefix] = true
	}
	sp := obs.StartSpan("zombie.lifespans")
	sp.SetArg("dumps", len(dumps))
	sp.SetArg("shards", cfg.Parallelism)
	defer sp.End()
	// Borrow is safe here: the fold retains only TABLE_DUMP_V2 records,
	// which the decoder always allocates fresh.
	e := &pipeline.Engine{Workers: cfg.Parallelism, Trace: sp, Borrow: true}
	nshards := cfg.Parallelism
	names, accs, err := pipeline.FoldRecords(e, dumps,
		func(pipeline.FileChunk) *ribChunk { return &ribChunk{} },
		func(acc *ribChunk, _ pipeline.FileChunk, _ int, rec mrt.Record) error {
			switch r := rec.(type) {
			case *mrt.PeerIndexTable:
				acc.tables = append(acc.tables, r)
			case *mrt.RIB:
				if track[r.Prefix] {
					acc.items = append(acc.items, ribItem{tablesBefore: len(acc.tables), rib: r})
				}
			}
			return nil
		})
	if err != nil {
		return nil, wrapDumpError(err)
	}

	m := e.Metrics
	if m == nil {
		m = pipeline.Default
	}
	buildStart := time.Now()
	buildSp := sp.Start("zombie.shard_build")
	type shardResult struct {
		rep    *LifespanReport
		err    error
		errPos [3]int // (file, chunk, item) of the first error, for ranking
	}
	results := make([]shardResult, nshards)
	e.For(nshards, func(s int) {
		series := make(map[peerPrefix][]ribObs)
		n := 0
		fail := func(pos [3]int, err error) {
			if results[s].err == nil {
				results[s].err, results[s].errPos = err, pos
			}
		}
		for i := range names {
			var carry *mrt.PeerIndexTable
			for ci, acc := range accs[i] {
				for ii, it := range acc.items {
					table := carry
					if it.tablesBefore > 0 {
						table = acc.tables[it.tablesBefore-1]
					}
					if shardOfPrefix(it.rib.Prefix, nshards) != s {
						continue
					}
					if table == nil {
						fail([3]int{i, ci, ii}, fmt.Errorf("zombie: dumps %s: %w", names[i], mrt.ErrNoPeerIndex))
						continue
					}
					for _, entry := range it.rib.Entries {
						if int(entry.PeerIndex) >= len(table.Peers) {
							fail([3]int{i, ci, ii}, fmt.Errorf("zombie: dumps %s: %w", names[i], mrt.ErrBadPeerIndex))
							continue
						}
						pe := table.Peers[entry.PeerIndex]
						k := peerPrefix{
							peer:   PeerID{Collector: names[i], AS: pe.AS, Addr: pe.Addr},
							prefix: it.rib.Prefix,
						}
						series[k] = append(series[k], ribObs{at: it.rib.Timestamp, path: entry.Attrs.ASPath})
						n++
					}
				}
				if len(acc.tables) > 0 {
					carry = acc.tables[len(acc.tables)-1]
				}
			}
		}
		if results[s].err != nil {
			return
		}
		rep := &LifespanReport{Prefixes: make(map[netip.Prefix]*PrefixLifespan)}
		for k, obs := range series {
			cfg.foldSeries(rep, k, obs, intervals)
		}
		results[s].rep = rep
		m.AddSharded(n)
	})
	buildSp.End()
	m.ObserveBuild(time.Since(buildStart))

	// The first error in stream order wins, as in the sequential scan.
	var firstErr error
	var firstPos [3]int
	for _, r := range results {
		if r.err != nil && (firstErr == nil ||
			r.errPos[0] < firstPos[0] ||
			(r.errPos[0] == firstPos[0] && r.errPos[1] < firstPos[1]) ||
			(r.errPos[0] == firstPos[0] && r.errPos[1] == firstPos[1] && r.errPos[2] < firstPos[2])) {
			firstErr, firstPos = r.err, r.errPos
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Merge: prefixes are disjoint across shards.
	mergeStart := time.Now()
	mergeSp := sp.Start("zombie.merge")
	rep := &LifespanReport{Prefixes: make(map[netip.Prefix]*PrefixLifespan)}
	for _, r := range results {
		for p, pl := range r.rep.Prefixes {
			rep.Prefixes[p] = pl
		}
	}
	finishLifespans(rep, intervals)
	mergeSp.End()
	m.AddMerged(nshards)
	m.ObserveMerge(time.Since(mergeStart))
	return rep, nil
}

// wrapDumpError rewraps a pipeline position error into TrackLifespans'
// error shape.
func wrapDumpError(err error) error {
	var fe *pipeline.FileError
	if errors.As(err, &fe) {
		return fmt.Errorf("zombie: dumps %s: %w", fe.Name, fe.Err)
	}
	return err
}
