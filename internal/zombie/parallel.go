package zombie

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
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
// tables of the chunk, and for each tracked RIB record its prefix, time and
// record index within the file, how many tables preceded it inside the
// chunk (0 = the table is in an earlier chunk) and the end of its run of
// entry rows. A row keeps an entry's peer index and interned AS path, all
// the walk reads of it.
type ribChunk struct {
	tables  []*mrt.PeerIndexTable
	items   []ribItem
	entries []ribEntry
}

type ribItem struct {
	prefix       netip.Prefix
	at           time.Time
	record       int
	tablesBefore int
	end          int // the record's rows are entries[previous end:end]
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
// Chunked decode breaks the "RIB entries follow their PeerIndexTable in the
// same file" invariant, so one walk visits the chunks of each file in order,
// carrying the effective table across chunk boundaries. The error returned
// is the first in (file, record) order, whether the framing, the record
// decode or the peer-index lookup failed there.
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
				if _, ok := byPrefix[r.Prefix]; ok {
					for _, entry := range r.Entries {
						acc.entries = append(acc.entries, ribEntry{peer: entry.PeerIndex, path: entry.Attrs.ASPath})
					}
					acc.items = append(acc.items, ribItem{prefix: r.Prefix, at: r.Timestamp, record: idx,
						tablesBefore: len(acc.tables), end: len(acc.entries)})
				}
			}
			return nil
		})

	m := pipeline.Default
	buildStart := time.Now()
	// zombie.shard_build times the series walk; trace readers know it by
	// that name.
	buildSp := sp.Start("zombie.shard_build")
	series, walkPos, walkErr := walkRIBs(names, accs)
	buildSp.End()
	m.ObserveBuild(time.Since(buildStart))

	// The first error in (file, record) order wins, as a reader of the files
	// in name order would have met it: the fold's framing/decode error
	// ranked against the walk's first peer-index error.
	if foldErr != nil {
		var fe *pipeline.FileError
		if !errors.As(foldErr, &fe) {
			return nil, foldErr
		}
		pos := [2]int{sort.SearchStrings(names, fe.Name), fe.Record}
		if walkErr == nil || slices.Compare(pos[:], walkPos[:]) <= 0 {
			return nil, fmt.Errorf("zombie: dumps %s: %w", fe.Name, fe.Err)
		}
	}
	if walkErr != nil {
		return nil, walkErr
	}
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

// walkRIBs is the one ordered walk over the folded chunks: files in name
// order, chunks in stream order, the peer-index table carried across chunk
// boundaries. Each table's peers are numbered once, when the walk reaches
// it (a table listing the same peers as the file's previous one shares its
// numbers); every tracked entry is appended to its (prefix, peer number)
// series. It stops at the first peer-index error, which is therefore the
// first in (file, record) order, and returns its position with it.
func walkRIBs(names []string, accs [][]*ribChunk) (*ribSeries, [2]int, error) {
	s := &ribSeries{byPrefix: make(map[netip.Prefix]map[uint32][]ribObs)}
	peerIdx := make(map[PeerID]uint32)
	var last *mrt.PeerIndexTable
	var lastIDs []uint32
	// number never returns nil, so a nil table below means none yet.
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
		var carry []uint32
		for _, acc := range accs[i] {
			tables := make([][]uint32, len(acc.tables))
			for k, t := range acc.tables {
				tables[k] = number(name, t)
			}
			start := 0
			for _, it := range acc.items {
				rows := acc.entries[start:it.end]
				start = it.end
				table := carry
				if it.tablesBefore > 0 {
					table = tables[it.tablesBefore-1]
				}
				if table == nil {
					return nil, [2]int{i, it.record}, fmt.Errorf("zombie: dumps %s: %w", name, mrt.ErrNoPeerIndex)
				}
				bySeries := s.byPrefix[it.prefix]
				for _, row := range rows {
					if int(row.peer) >= len(table) {
						return nil, [2]int{i, it.record}, fmt.Errorf("zombie: dumps %s: %w", name, mrt.ErrBadPeerIndex)
					}
					if bySeries == nil { // a prefix gets a lifespan only once observed
						bySeries = make(map[uint32][]ribObs)
						s.byPrefix[it.prefix] = bySeries
					}
					id := table[row.peer]
					bySeries[id] = append(bySeries[id], ribObs{at: it.at, path: row.path})
					s.n++
				}
			}
			if len(tables) > 0 {
				carry = tables[len(tables)-1]
			}
		}
	}
	return s, [2]int{}, nil
}
