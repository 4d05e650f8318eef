package zombie

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
)

// This file holds the package's worker convention (engine) and the lifespan
// tracker built on it: RIB dumps are decoded in record-aligned chunks by the
// pipeline engine, one ordered walk over the chunks builds the observation
// series, and each prefix's series fold into its lifespan on the engine's
// workers. The differential harness (diff_test.go) compares every worker
// count against the plain mrt.Reader loop kept as a test-only oracle.

// engine is THE worker convention: a user-set parallelism of 0 or 1 is one
// inline worker — pipeline.Engine.For with one worker is a plain loop in
// index order — and N > 1 is N workers. Every stage runs one body on the
// engine it returns, so there is no sequential twin that could drift.
func engine(parallelism int, trace *obs.Span) *pipeline.Engine {
	return &pipeline.Engine{Workers: max(parallelism, 1), Trace: trace}
}

// ribChunk is a per-chunk accumulator for RIB dump streams: the peer index
// tables of the chunk, and for each tracked RIB record its prefix, time,
// the table its entries index (a position in tables) and the end of its
// run of entry rows. A row keeps an entry's peer index, which the fold has
// checked against that table, and its interned AS path: all the walk reads
// of it.
type ribChunk struct {
	tables  []*mrt.PeerIndexTable
	items   []ribItem
	entries []ribEntry
}

type ribItem struct {
	prefix netip.Prefix
	at     time.Time
	table  int // the record's entries index tables[table]
	end    int // the record's rows are entries[previous end:end]
}

type ribEntry struct {
	peer uint16
	path bgp.ASPath
}

// TrackLifespans parses RIB dump archives (keyed by collector name) and
// builds per-prefix lifespans for the tracked beacon prefixes. intervals
// provide the withdrawal anchors and rule out reappearances explained by
// real announcements.
//
// The pipeline cuts a dump only just before a PEER_INDEX_TABLE, so each
// chunk resolves the peers of its own RIB records against the table that
// precedes them in the chunk. A tracked record with no table before it in
// its file, or with an entry indexing past its table, is an error at that
// record, and the error returned is the first in (file, record) order,
// whether the framing, the record decode or the peer-index check failed
// there. A dump holding a single snapshot decodes on one worker; lifespans
// are read from many snapshots, so the chunks stay many.
func TrackLifespans(dumps map[string][]byte, intervals []beacon.Interval, cfg LifespanConfig) (*LifespanReport, error) {
	byPrefix := intervalsByPrefix(intervals)
	sp := obs.StartSpan("zombie.lifespans")
	defer sp.End()
	// Borrow is safe here: the fold copies what it keeps out of each RIB
	// record before the next decode, and a borrowed RIB's AS paths are
	// interned, so retaining them is allowed.
	e := engine(cfg.Parallelism, sp)
	e.Borrow = true
	sp.SetArg("dumps", len(dumps))
	sp.SetArg("workers", e.Workers)
	names, accs, err := pipeline.FoldStreams(e, oneSegmentStreams(dumps),
		func(pipeline.FileChunk) *ribChunk { return &ribChunk{} },
		func(acc *ribChunk, _ pipeline.FileChunk, _ int, rec mrt.Record) error {
			switch r := rec.(type) {
			case *mrt.PeerIndexTable:
				acc.tables = append(acc.tables, r)
			case *mrt.RIB:
				if _, ok := byPrefix[r.Prefix]; !ok {
					return nil
				}
				// A chunk after a file's first starts with a table, so no
				// table here means none precedes the record in its file.
				if len(acc.tables) == 0 {
					return mrt.ErrNoPeerIndex
				}
				peers := len(acc.tables[len(acc.tables)-1].Peers)
				for _, entry := range r.Entries {
					if int(entry.PeerIndex) >= peers {
						return mrt.ErrBadPeerIndex
					}
					acc.entries = append(acc.entries, ribEntry{peer: entry.PeerIndex, path: entry.Attrs.ASPath})
				}
				acc.items = append(acc.items, ribItem{prefix: r.Prefix, at: r.Timestamp, table: len(acc.tables) - 1, end: len(acc.entries)})
			}
			return nil
		})
	if err != nil {
		var fe *pipeline.FileError
		if errors.As(err, &fe) {
			return nil, fmt.Errorf("zombie: dumps %s: %w", fe.Name, fe.Err)
		}
		return nil, err
	}

	m := pipeline.Default
	buildStart := time.Now()
	// zombie.shard_build times the series walk; trace readers know it by
	// that name.
	buildSp := sp.Start("zombie.shard_build")
	series := walkRIBs(names, accs)
	buildSp.End()
	m.ObserveBuild(time.Since(buildStart))
	m.AddSharded(series.n)

	// Fold: each prefix's series into its own lifespan, prefixes spread
	// over the workers.
	mergeStart := time.Now()
	mergeSp := sp.Start("zombie.merge")
	prefixes := make([]netip.Prefix, 0, len(series.byPrefix))
	for p := range series.byPrefix {
		prefixes = append(prefixes, p)
	}
	pls := make([]*PrefixLifespan, len(prefixes))
	e.For(len(prefixes), func(i int) {
		pl := &PrefixLifespan{Prefix: prefixes[i]}
		ivs := byPrefix[pl.Prefix]
		for peer, obs := range series.byPrefix[pl.Prefix] {
			foldSeries(pl, series.peers[peer], obs, ivs)
		}
		finishLifespan(pl, ivs)
		pls[i] = pl
	})
	rep := &LifespanReport{Prefixes: make(map[netip.Prefix]*PrefixLifespan, len(pls))}
	for _, pl := range pls {
		rep.Prefixes[pl.Prefix] = pl
	}
	mergeSp.End()
	m.AddMerged(len(pls))
	m.ObserveMerge(time.Since(mergeStart))
	return rep, nil
}

// ribSeries is the walk's result: every tracked observation, by prefix and
// then by dense peer number.
type ribSeries struct {
	peers    []PeerID // by peer number
	byPrefix map[netip.Prefix]map[uint32][]ribObs
	n        int // observations
}

// walkRIBs is the merge of the folded chunks, files in name order and
// chunks in stream order: it numbers each table's peers once, when it
// reaches the table (a table listing the same peers as the file's previous
// one shares its numbers), and appends every tracked entry to its
// (prefix, peer number) series.
func walkRIBs(names []string, accs [][]*ribChunk) *ribSeries {
	s := &ribSeries{byPrefix: make(map[netip.Prefix]map[uint32][]ribObs)}
	peerIdx := make(map[PeerID]uint32)
	var last *mrt.PeerIndexTable
	var lastIDs []uint32
	number := func(name string, t *mrt.PeerIndexTable) []uint32 {
		if last != nil && slices.Equal(t.Peers, last.Peers) {
			return lastIDs
		}
		ids := make([]uint32, len(t.Peers))
		for i, pe := range t.Peers {
			peer := PeerID{Collector: name, AS: pe.AS, Addr: pe.Addr}
			id, ok := peerIdx[peer]
			if !ok {
				id = uint32(len(s.peers))
				peerIdx[peer] = id
				s.peers = append(s.peers, peer)
			}
			ids[i] = id
		}
		last, lastIDs = t, ids
		return ids
	}
	for i, name := range names {
		last = nil
		for _, acc := range accs[i] {
			tables := make([][]uint32, len(acc.tables))
			for k, t := range acc.tables {
				tables[k] = number(name, t)
			}
			start := 0
			for _, it := range acc.items {
				rows := acc.entries[start:it.end]
				start = it.end
				table := tables[it.table]
				bySeries := s.byPrefix[it.prefix]
				for _, row := range rows {
					if bySeries == nil { // a prefix gets a lifespan only once observed
						bySeries = make(map[uint32][]ribObs)
						s.byPrefix[it.prefix] = bySeries
					}
					id := table[row.peer]
					bySeries[id] = append(bySeries[id], ribObs{at: it.at, path: row.path})
					s.n++
				}
			}
		}
	}
	return s
}
