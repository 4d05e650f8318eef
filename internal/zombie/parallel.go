package zombie

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"slices"
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/mrt"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
)

// This file holds the package's worker convention (engine) and the lifespan
// tracker built on it: RIB dumps are decoded in record-aligned chunks by the
// pipeline engine, tracked RIB records are routed to prefix-hashed shards,
// each shard builds its slice of the observation series lock-free in stream
// order, and the shards merge into one report. The differential harness
// (diff_test.go) compares every worker count against the plain mrt.Reader
// loop kept as a test-only oracle.

// engine is THE worker convention: a user-set parallelism of 0 or 1 is one
// inline worker — pipeline.Engine.For with one worker is a plain loop in
// index order — and N > 1 is N workers. Every stage runs one body on the
// engine it returns, so there is no sequential twin that could drift.
func engine(parallelism int, trace *obs.Span) *pipeline.Engine {
	return &pipeline.Engine{Workers: max(parallelism, 1), Trace: trace}
}

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
// tables of the chunk plus the tracked RIB records, each remembering its
// record index within the file and how many tables preceded it inside the
// chunk (0 = the table is in an earlier chunk).
type ribChunk struct {
	tables []*mrt.PeerIndexTable
	items  []ribItem
}

type ribItem struct {
	tablesBefore int
	record       int
	rib          *mrt.RIB
}

// TrackLifespans parses RIB dump archives (keyed by collector name) and
// builds per-prefix lifespans for the tracked beacon prefixes. intervals
// provide the withdrawal anchors and rule out reappearances explained by
// real announcements.
//
// Chunked decode breaks the "RIB entries follow their PeerIndexTable in the
// same file" invariant, so every shard walks the chunk list of each file in
// order, carrying the effective table across chunk boundaries, and applies
// only its own prefixes — cheap, lock-free, and order-identical. The error
// returned is the first in (file, record) order, whether the framing, the
// record decode or the peer-index lookup failed there.
func TrackLifespans(dumps map[string][]byte, intervals []beacon.Interval, cfg LifespanConfig) (*LifespanReport, error) {
	track := make(TrackSet)
	for _, iv := range intervals {
		track[iv.Prefix] = true
	}
	sp := obs.StartSpan("zombie.lifespans")
	defer sp.End()
	// Borrow is safe here: the fold retains only TABLE_DUMP_V2 records,
	// which the decoder always allocates fresh.
	e := engine(cfg.Parallelism, sp)
	e.Borrow = true
	nshards := e.Workers
	sp.SetArg("dumps", len(dumps))
	sp.SetArg("shards", nshards)
	// On a framing or decode error the fold still hands back what it
	// decoded before (and, in later chunks, after) the bad record, so a
	// peer-index error at an earlier record can outrank it below.
	names, accs, foldErr := pipeline.FoldStreams(e, oneSegmentStreams(dumps),
		func(pipeline.FileChunk) *ribChunk { return &ribChunk{} },
		func(acc *ribChunk, _ pipeline.FileChunk, idx int, rec mrt.Record) error {
			switch r := rec.(type) {
			case *mrt.PeerIndexTable:
				acc.tables = append(acc.tables, r)
			case *mrt.RIB:
				if track[r.Prefix] {
					acc.items = append(acc.items, ribItem{tablesBefore: len(acc.tables), record: idx, rib: r})
				}
			}
			return nil
		})

	m := pipeline.Default
	buildStart := time.Now()
	buildSp := sp.Start("zombie.shard_build")
	type shardResult struct {
		rep    *LifespanReport
		err    error
		errPos [2]int // (file, record) of the shard's first error, for ranking
	}
	results := make([]shardResult, nshards)
	e.For(nshards, func(s int) {
		series := make(map[peerPrefix][]ribObs)
		n := 0
		fail := func(pos [2]int, err error) {
			if results[s].err == nil {
				results[s].err, results[s].errPos = err, pos
			}
		}
		for i := range names {
			var carry *mrt.PeerIndexTable
			for _, acc := range accs[i] {
				for _, it := range acc.items {
					table := carry
					if it.tablesBefore > 0 {
						table = acc.tables[it.tablesBefore-1]
					}
					// One shard owns every prefix: skip the hash.
					if nshards > 1 && shardOfPrefix(it.rib.Prefix, nshards) != s {
						continue
					}
					if table == nil {
						fail([2]int{i, it.record}, fmt.Errorf("zombie: dumps %s: %w", names[i], mrt.ErrNoPeerIndex))
						continue
					}
					for _, entry := range it.rib.Entries {
						if int(entry.PeerIndex) >= len(table.Peers) {
							fail([2]int{i, it.record}, fmt.Errorf("zombie: dumps %s: %w", names[i], mrt.ErrBadPeerIndex))
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
		if results[s].err != nil || foldErr != nil {
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

	// The first error in (file, record) order wins, as a reader of the files
	// in name order would have met it: the fold's framing/decode error
	// ranked against every shard's first peer-index error.
	var firstErr error
	var firstPos [2]int
	if foldErr != nil {
		var fe *pipeline.FileError
		if !errors.As(foldErr, &fe) {
			return nil, foldErr
		}
		firstErr = fmt.Errorf("zombie: dumps %s: %w", fe.Name, fe.Err)
		firstPos = [2]int{sort.SearchStrings(names, fe.Name), fe.Record}
	}
	for _, r := range results {
		if r.err != nil && (firstErr == nil || slices.Compare(r.errPos[:], firstPos[:]) < 0) {
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
