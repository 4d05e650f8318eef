package zombie

import (
	"cmp"
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
)

// Episode is a contiguous run of RIB-dump observations of a zombie prefix
// at one peer.
type Episode struct {
	Peer      PeerID
	FirstSeen time.Time
	LastSeen  time.Time
	// Path is the stuck AS path from the most recent observation.
	Path bgp.ASPath
	// Observations counts the dumps in the episode.
	Observations int
}

// Resurrection is a reappearance of a prefix at a peer after it had
// vanished from the dumps, with no beacon announcement in between — the
// phenomenon the paper documents first.
type Resurrection struct {
	Peer         PeerID
	Prefix       netip.Prefix
	LastSeen     time.Time // end of the previous episode
	ReappearedAt time.Time
	Path         bgp.ASPath
}

// PrefixLifespan aggregates the longitudinal view of one beacon prefix.
type PrefixLifespan struct {
	Prefix        netip.Prefix
	WithdrawAt    time.Time
	Episodes      []Episode
	Resurrections []Resurrection
}

// LastSeen returns the latest observation across episodes, honoring the
// exclusion sets (nil sets exclude nothing).
func (pl *PrefixLifespan) LastSeen(excludeAS map[bgp.ASN]bool, excludeAddr map[netip.Addr]bool) (time.Time, bool) {
	var last time.Time
	found := false
	for _, ep := range pl.Episodes {
		if excludeAS != nil && excludeAS[ep.Peer.AS] {
			continue
		}
		if excludeAddr != nil && excludeAddr[ep.Peer.Addr] {
			continue
		}
		if ep.LastSeen.After(last) {
			last = ep.LastSeen
			found = true
		}
	}
	return last, found
}

// Duration returns how long the outbreak lasted past the withdrawal, with
// exclusions applied.
func (pl *PrefixLifespan) Duration(excludeAS map[bgp.ASN]bool, excludeAddr map[netip.Addr]bool) (time.Duration, bool) {
	last, ok := pl.LastSeen(excludeAS, excludeAddr)
	if !ok || !last.After(pl.WithdrawAt) {
		return 0, false
	}
	return last.Sub(pl.WithdrawAt), true
}

// LifespanReport is the result of tracking RIB dumps over time.
type LifespanReport struct {
	Prefixes map[netip.Prefix]*PrefixLifespan
}

// LifespanConfig tunes episode construction.
type LifespanConfig struct {
	// Parallelism is the pipeline worker count for dump parsing and the
	// per-prefix series folds. 0 or 1: one inline worker — the
	// same code path, so the report and any error are identical for
	// every value.
	Parallelism int
}

// dumpInterval is the RIB snapshot cadence (RIS: 8h). A gap of more than
// 1.5× between two observations splits an episode.
const (
	dumpInterval = 8 * time.Hour
	episodeGap   = dumpInterval + dumpInterval/2
)

// resurrectionGrace is how long after the beacon withdrawal a FIRST
// appearance still counts as ordinary zombie visibility; a first episode
// starting later than this (with no announcement in between) is a
// resurrection, like the paper's outbreaks that became visible a month
// after the last beacon withdrawal.
const resurrectionGrace = 24 * time.Hour

type ribObs struct {
	at   time.Time
	path bgp.ASPath
}

// comparePeers orders PeerIDs by (Collector, AS, Addr) — the canonical
// order finish() uses, reused as the deterministic tie-break everywhere a
// sort key alone is not total.
func comparePeers(a, b PeerID) int {
	return cmp.Or(cmp.Compare(a.Collector, b.Collector), cmp.Compare(a.AS, b.AS), a.Addr.Compare(b.Addr))
}

// intervalsByPrefix groups the beacon intervals by prefix, in their
// order, so each series reads its own prefix's intervals only.
func intervalsByPrefix(intervals []beacon.Interval) map[netip.Prefix][]beacon.Interval {
	by := make(map[netip.Prefix][]beacon.Interval)
	for _, iv := range intervals {
		by[iv.Prefix] = append(by[iv.Prefix], iv)
	}
	return by
}

// foldSeries turns the observation series of pl's prefix at one peer into
// episodes and resurrections on pl. Only pl.Prefix's intervals are read, so
// a caller may pass just those (intervalsByPrefix). The test-only
// reader-loop oracle shares it: the two differ in how they read the dumps,
// never in what a series means.
func foldSeries(pl *PrefixLifespan, peer PeerID, obs []ribObs, intervals []beacon.Interval) {
	sort.SliceStable(obs, func(i, j int) bool { return obs[i].at.Before(obs[j].at) })
	// A first appearance long after the withdrawal, unexplained by a
	// new announcement, is itself a resurrection (the stuck route was
	// re-announced to this peer by an infected router).
	if len(obs) > 0 {
		first := obs[0].at
		anchor := withdrawAnchor(intervals, pl.Prefix, first)
		if !anchor.IsZero() && first.Sub(anchor) > resurrectionGrace &&
			!announcedBetween(intervals, pl.Prefix, anchor, first) {
			pl.Resurrections = append(pl.Resurrections, Resurrection{
				Peer:         peer,
				Prefix:       pl.Prefix,
				LastSeen:     anchor,
				ReappearedAt: first,
				Path:         obs[0].path,
			})
		}
	}
	var cur *Episode
	for _, o := range obs {
		if cur != nil && o.at.Sub(cur.LastSeen) <= episodeGap {
			cur.LastSeen = o.at
			cur.Path = o.path
			cur.Observations++
			continue
		}
		if cur != nil {
			pl.Episodes = append(pl.Episodes, *cur)
			// A new episode after a gap is a resurrection unless a
			// beacon announcement of the prefix happened in between.
			if !announcedBetween(intervals, pl.Prefix, cur.LastSeen, o.at) {
				pl.Resurrections = append(pl.Resurrections, Resurrection{
					Peer:         peer,
					Prefix:       pl.Prefix,
					LastSeen:     cur.LastSeen,
					ReappearedAt: o.at,
					Path:         o.path,
				})
			}
		}
		cur = &Episode{Peer: peer, FirstSeen: o.at, LastSeen: o.at, Path: o.path, Observations: 1}
	}
	if cur != nil {
		pl.Episodes = append(pl.Episodes, *cur)
	}
}

// finishLifespan imposes the canonical ordering on pl and anchors its
// withdrawal: the latest interval withdrawal at or before the prefix's
// first observation. The sort keys are total orders (peer identity breaks
// every tie), so the result is independent of series map iteration and of
// how many workers folded the series. ivs are pl.Prefix's intervals (or
// any superset).
func finishLifespan(pl *PrefixLifespan, ivs []beacon.Interval) {
	sort.Slice(pl.Episodes, func(i, j int) bool {
		a, b := pl.Episodes[i], pl.Episodes[j]
		if !a.FirstSeen.Equal(b.FirstSeen) {
			return a.FirstSeen.Before(b.FirstSeen)
		}
		return comparePeers(a.Peer, b.Peer) < 0
	})
	sort.Slice(pl.Resurrections, func(i, j int) bool {
		a, b := pl.Resurrections[i], pl.Resurrections[j]
		if !a.ReappearedAt.Equal(b.ReappearedAt) {
			return a.ReappearedAt.Before(b.ReappearedAt)
		}
		return comparePeers(a.Peer, b.Peer) < 0
	})
	first := time.Time{}
	if len(pl.Episodes) > 0 {
		first = pl.Episodes[0].FirstSeen
	}
	pl.WithdrawAt = withdrawAnchor(ivs, pl.Prefix, first)
}

func announcedBetween(intervals []beacon.Interval, p netip.Prefix, from, to time.Time) bool {
	for _, iv := range intervals {
		if iv.Prefix != p {
			continue
		}
		if iv.AnnounceAt.After(from) && iv.AnnounceAt.Before(to) {
			return true
		}
	}
	return false
}

func withdrawAnchor(intervals []beacon.Interval, p netip.Prefix, firstSeen time.Time) time.Time {
	var best time.Time
	for _, iv := range intervals {
		if iv.Prefix != p {
			continue
		}
		if firstSeen.IsZero() || !iv.WithdrawAt.After(firstSeen) {
			if iv.WithdrawAt.After(best) {
				best = iv.WithdrawAt
			}
		}
	}
	if best.IsZero() {
		// No interval precedes the first observation; take the earliest.
		for _, iv := range intervals {
			if iv.Prefix != p {
				continue
			}
			if best.IsZero() || iv.WithdrawAt.Before(best) {
				best = iv.WithdrawAt
			}
		}
	}
	return best
}

// Durations collects outbreak durations at least minDur long, exclusions
// applied — the material of the paper's duration CDF (its Fig. 3).
func (rep *LifespanReport) Durations(minDur time.Duration, excludeAS map[bgp.ASN]bool, excludeAddr map[netip.Addr]bool) []time.Duration {
	var out []time.Duration
	for _, pl := range rep.Prefixes {
		d, ok := pl.Duration(excludeAS, excludeAddr)
		if ok && d >= minDur {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Resurrections returns every resurrection across prefixes, sorted by
// reappearance time.
func (rep *LifespanReport) Resurrections() []Resurrection {
	var out []Resurrection
	for _, pl := range rep.Prefixes {
		out = append(out, pl.Resurrections...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.ReappearedAt.Equal(b.ReappearedAt) {
			return a.ReappearedAt.Before(b.ReappearedAt)
		}
		if c := comparePrefixes(a.Prefix, b.Prefix); c != 0 {
			return c < 0
		}
		return comparePeers(a.Peer, b.Peer) < 0
	})
	return out
}
