package zombie

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// peerPrefix keys one observation series: one prefix at one collector peer.
type peerPrefix struct {
	peer   PeerID
	prefix netip.Prefix
}

// trackLifespansReference is the lifespan oracle: the original plain
// mrt.Reader loop over the dumps in name order, one record at a time, no
// chunks, one flat series map, each RIB record resolved against the last
// table read. It shares only foldSeries and finishLifespans with
// TrackLifespans, so agreement pins the table-aligned chunking, each
// chunk's own peer resolution, the peer numbering of the merge, the
// per-prefix fold and the error ranking.
func trackLifespansReference(dumps map[string][]byte, intervals []beacon.Interval) (*LifespanReport, error) {
	track := make(TrackSet)
	for _, iv := range intervals {
		track[iv.Prefix] = true
	}
	series := make(map[peerPrefix][]ribObs)
	names := make([]string, 0, len(dumps))
	for n := range dumps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		rd := mrt.NewReader(bytes.NewReader(dumps[name]))
		var table *mrt.PeerIndexTable
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("zombie: dumps %s: %w", name, err)
			}
			switch r := rec.(type) {
			case *mrt.PeerIndexTable:
				table = r
			case *mrt.RIB:
				if !track[r.Prefix] {
					continue
				}
				if table == nil {
					return nil, fmt.Errorf("zombie: dumps %s: %w", name, mrt.ErrNoPeerIndex)
				}
				for _, e := range r.Entries {
					if int(e.PeerIndex) >= len(table.Peers) {
						return nil, fmt.Errorf("zombie: dumps %s: %w", name, mrt.ErrBadPeerIndex)
					}
					pe := table.Peers[e.PeerIndex]
					peer := PeerID{Collector: name, AS: pe.AS, Addr: pe.Addr}
					k := peerPrefix{peer: peer, prefix: r.Prefix}
					series[k] = append(series[k], ribObs{at: r.Timestamp, path: e.Attrs.ASPath})
				}
			}
		}
	}
	rep := &LifespanReport{Prefixes: make(map[netip.Prefix]*PrefixLifespan)}
	for k, obs := range series {
		pl := rep.Prefixes[k.prefix]
		if pl == nil {
			pl = &PrefixLifespan{Prefix: k.prefix}
			rep.Prefixes[k.prefix] = pl
		}
		foldSeries(pl, k.peer, obs, intervals)
	}
	finishLifespans(rep, intervals)
	return rep, nil
}

// finishLifespans imposes the canonical ordering and anchors withdrawals
// on every prefix of rep (see finishLifespan).
func finishLifespans(rep *LifespanReport, intervals []beacon.Interval) {
	byPrefix := intervalsByPrefix(intervals)
	for p, pl := range rep.Prefixes {
		finishLifespan(pl, byPrefix[p])
	}
}

// lifespanParallelism is every worker count TrackLifespans is compared with
// the oracle at: 0 and 1 are the inline worker, 2, 4 and 8 chunk the
// decode and spread the per-prefix folds.
var lifespanParallelism = []int{0, 1, 2, 4, 8}

// assertLifespansMatchReference runs TrackLifespans at every worker count
// and requires the report and the error string of the oracle.
func assertLifespansMatchReference(t *testing.T, dumps map[string][]byte, intervals []beacon.Interval) (*LifespanReport, error) {
	t.Helper()
	want, wantErr := trackLifespansReference(dumps, intervals)
	for _, par := range lifespanParallelism {
		got, err := TrackLifespans(dumps, intervals, LifespanConfig{Parallelism: par})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("parallelism %d: error %q, reference %q", par, fmt.Sprint(err), fmt.Sprint(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: LifespanReport diverges from reference", par)
		}
	}
	return want, wantErr
}

// dumpWriter assembles a TABLE_DUMP_V2 stream record by record and
// remembers where each record starts, so a case can corrupt or cut it.
type dumpWriter struct {
	t    *testing.T
	buf  bytes.Buffer
	offs []int
}

func (w *dumpWriter) add(rec mrt.Record) {
	w.t.Helper()
	w.offs = append(w.offs, w.buf.Len())
	if err := mrt.NewWriter(&w.buf).Write(rec); err != nil {
		w.t.Fatal(err)
	}
}

func (w *dumpWriter) table(npeers int) {
	tbl := &mrt.PeerIndexTable{Timestamp: t0, CollectorID: netip.MustParseAddr("193.0.4.28"), ViewName: "v"}
	for i := 0; i < npeers; i++ {
		tbl.Peers = append(tbl.Peers, mrt.PeerEntry{
			BGPID: netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}),
			Addr:  netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}),
			AS:    bgp.ASN(64500 + i),
		})
	}
	w.add(tbl)
}

func (w *dumpWriter) rib(p netip.Prefix, peerIndex uint16) {
	w.add(&mrt.RIB{Timestamp: t0.Add(8 * time.Hour), Sequence: uint32(len(w.offs)), Prefix: p, Entries: []mrt.RIBEntry{{
		PeerIndex:      peerIndex,
		OriginatedTime: t0,
		Attrs:          bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: bgp.NewASPath(64500, 3356, 8298, 210312)},
	}}})
}

// filler appends untracked RIB records until the stream has grown by at
// least n bytes: the bulk that makes the chunk scan cut the stream (a chunk
// is never shorter than 64 KiB).
func (w *dumpWriter) filler(n int) {
	for end := w.buf.Len() + n; w.buf.Len() < end; {
		w.rib(netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(len(w.offs) >> 8), byte(len(w.offs))}), 32), 0)
	}
}

// truncated returns the stream cut in the middle of its last record.
func (w *dumpWriter) truncated() []byte {
	return w.buf.Bytes()[:w.buf.Len()-5]
}

// TestLifespanErrorsMatchReference is the error half of the lifespan
// differential: on malformed dumps TrackLifespans must return, at every
// worker count, exactly the error the record-at-a-time oracle returns — the
// first in (file, record) order, whether the framing, the record decode or
// the peer-index check failed there. The combined rows are the ones a
// chunked tracker gets wrong if it ranks a framing or decode error apart
// from a peer-index error, or cuts a dump between a table and the RIB
// records that index it.
func TestLifespanErrorsMatchReference(t *testing.T) {
	const chunk = 80 << 10 // more than the scan's 64 KiB minimum chunk
	ivs := []beacon.Interval{{Prefix: pfx4, AnnounceAt: t0, WithdrawAt: t0.Add(2 * time.Hour), End: t0.Add(24 * time.Hour)}}
	noTable := func(w *dumpWriter) { w.rib(pfx4, 0); w.table(2) }
	badIndex := func(w *dumpWriter) { w.table(2); w.rib(pfx4, 7) }
	one := func(data []byte) map[string][]byte { return map[string][]byte{"rrc00": data} }
	for _, tc := range []struct {
		name    string
		wantErr error // nil: the dumps are well-formed and hold one episode
		build   func(a, b *dumpWriter) map[string][]byte
	}{
		{"tracked RIB before any peer index table", mrt.ErrNoPeerIndex, func(a, _ *dumpWriter) map[string][]byte {
			noTable(a)
			a.filler(3 * chunk)
			return one(a.buf.Bytes())
		}},
		{"peer index out of range", mrt.ErrBadPeerIndex, func(a, _ *dumpWriter) map[string][]byte {
			badIndex(a)
			a.filler(3 * chunk)
			return one(a.buf.Bytes())
		}},
		{"truncated tail", mrt.ErrTruncated, func(a, _ *dumpWriter) map[string][]byte {
			a.table(2)
			a.rib(pfx4, 1)
			a.filler(3 * chunk)
			return one(a.truncated())
		}},
		{"no peer index table, then a truncated tail", mrt.ErrNoPeerIndex, func(a, _ *dumpWriter) map[string][]byte {
			noTable(a)
			a.filler(3 * chunk)
			return one(a.truncated())
		}},
		{"peer index out of range, then a truncated tail", mrt.ErrBadPeerIndex, func(a, _ *dumpWriter) map[string][]byte {
			a.filler(chunk)
			badIndex(a)
			a.filler(2 * chunk)
			return one(a.truncated())
		}},
		{"undecodable record in an early chunk, peer index out of range in a later one", bgp.ErrBadPrefix, func(a, _ *dumpWriter) map[string][]byte {
			a.table(2)
			a.filler(3 * chunk)
			a.rib(pfx4, 7)
			// Prefix length 200 in an IPv4 RIB: the record frames but does
			// not decode; the chunks after it still do.
			data := a.buf.Bytes()
			data[a.offs[5]+mrt.HeaderLen+4] = 200
			return one(data)
		}},
		{"truncated file before a file with no peer index table", mrt.ErrTruncated, func(a, b *dumpWriter) map[string][]byte {
			a.table(2)
			a.filler(2 * chunk)
			noTable(b)
			return map[string][]byte{"rrc00": a.truncated(), "rrc01": b.buf.Bytes()}
		}},
		{"file with no peer index table before a truncated file", mrt.ErrNoPeerIndex, func(a, b *dumpWriter) map[string][]byte {
			a.filler(2 * chunk)
			noTable(a)
			b.table(2)
			b.filler(2 * chunk)
			return map[string][]byte{"rrc00": a.buf.Bytes(), "rrc01": b.truncated()}
		}},
		{"table in chunk k, tracked RIB in chunk k+1", nil, func(a, _ *dumpWriter) map[string][]byte {
			a.filler(chunk)
			a.table(2)
			a.filler(2 * chunk)
			a.rib(pfx4, 1)
			return one(a.buf.Bytes())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dumps := tc.build(&dumpWriter{t: t}, &dumpWriter{t: t})
			rep, err := assertLifespansMatchReference(t, dumps, ivs)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("reference error %v, want %v", err, tc.wantErr)
			}
			if err == nil && len(rep.Prefixes[pfx4].Episodes) != 1 {
				t.Errorf("well-formed dump: %d episodes, want 1", len(rep.Prefixes[pfx4].Episodes))
			}
		})
	}
}
