package zombie

import (
	"errors"
	"fmt"
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
// same file" invariant, so one walk visits the chunks of each file in order,
// carrying the effective table across chunk boundaries. The error returned
// is the first in (file, record) order, whether the framing, the record
// decode or the peer-index lookup failed there.
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
				if track[r.Prefix] {
					acc.items = append(acc.items, ribItem{tablesBefore: len(acc.tables), record: idx, rib: r})
				}
			}
			return nil
		})

	m := pipeline.Default
	buildStart := time.Now()
	// zombie.shard_build times the series walk; trace readers know it by
	// that name.
	buildSp := sp.Start("zombie.shard_build")
	series, n, walkPos, walkErr := walkRIBs(names, accs)
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
	m.AddSharded(n)

	// Fold: each prefix's series into its own lifespan, prefixes spread
	// over the workers.
	mergeStart := time.Now()
	mergeSp := sp.Start("zombie.merge")
	prefixes := make([]netip.Prefix, 0, len(series))
	for p := range series {
		prefixes = append(prefixes, p)
	}
	pls := make([]*PrefixLifespan, len(prefixes))
	e.For(len(prefixes), func(i int) {
		pl := &PrefixLifespan{Prefix: prefixes[i]}
		for peer, obs := range series[prefixes[i]] {
			cfg.foldSeries(pl, peer, obs, intervals)
		}
		pls[i] = pl
	})
	rep := &LifespanReport{Prefixes: make(map[netip.Prefix]*PrefixLifespan, len(pls))}
	for _, pl := range pls {
		rep.Prefixes[pl.Prefix] = pl
	}
	finishLifespans(rep, intervals)
	mergeSp.End()
	m.AddMerged(len(pls))
	m.ObserveMerge(time.Since(mergeStart))
	return rep, nil
}

// walkRIBs is the one ordered walk over the folded chunks: files in name
// order, chunks in stream order, the peer-index table carried across chunk
// boundaries. It appends every tracked entry to its (prefix, peer) series
// and returns how many it appended. It stops at the first peer-index error,
// which is therefore the first in (file, record) order, and returns its
// position with it.
func walkRIBs(names []string, accs [][]*ribChunk) (map[netip.Prefix]map[PeerID][]ribObs, int, [2]int, error) {
	series := make(map[netip.Prefix]map[PeerID][]ribObs)
	n := 0
	for i, name := range names {
		var carry *mrt.PeerIndexTable
		for _, acc := range accs[i] {
			for _, it := range acc.items {
				table := carry
				if it.tablesBefore > 0 {
					table = acc.tables[it.tablesBefore-1]
				}
				if table == nil {
					return nil, 0, [2]int{i, it.record}, fmt.Errorf("zombie: dumps %s: %w", name, mrt.ErrNoPeerIndex)
				}
				bySeries := series[it.rib.Prefix]
				for _, entry := range it.rib.Entries {
					if int(entry.PeerIndex) >= len(table.Peers) {
						return nil, 0, [2]int{i, it.record}, fmt.Errorf("zombie: dumps %s: %w", name, mrt.ErrBadPeerIndex)
					}
					if bySeries == nil { // a prefix gets a lifespan only once observed
						bySeries = make(map[PeerID][]ribObs)
						series[it.rib.Prefix] = bySeries
					}
					pe := table.Peers[entry.PeerIndex]
					peer := PeerID{Collector: name, AS: pe.AS, Addr: pe.Addr}
					bySeries[peer] = append(bySeries[peer], ribObs{at: it.rib.Timestamp, path: entry.Attrs.ASPath})
					n++
				}
			}
			if len(acc.tables) > 0 {
				carry = acc.tables[len(acc.tables)-1]
			}
		}
	}
	return series, n, [2]int{}, nil
}
