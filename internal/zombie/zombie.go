// Package zombie implements the paper's BGP zombie detection methodology —
// the primary contribution of the reproduction.
//
// A zombie (stuck) route is a route that remains in a peer's RIB after the
// origin AS withdrew the prefix. Detection works solely from collector raw
// data (MRT archives), at message-level granularity:
//
//  1. Reconstruct the present/removed state of every (peer, beacon prefix)
//     pair from UPDATE and session STATE records.
//  2. Split time into beacon intervals anchored at announcement times and
//     evaluate each interval independently: a route still present
//     `Threshold` (default 90 minutes) after the interval's withdrawal is
//     a zombie route; all zombie routes of a prefix in one interval form a
//     zombie outbreak.
//  3. Eliminate double-counting with the Aggregator BGP clock: a stuck
//     route whose encoded announcement time predates the current interval
//     was already counted in an earlier interval.
//  4. Score peers by their zombie likelihood and flag outliers as noisy;
//     results are reported with and without them.
//
// The package also provides the legacy looking-glass baseline of the prior
// study (for the replication tables), lifespan tracking over RIB dumps
// (including resurrection detection), and palm-tree root-cause inference.
package zombie

import (
	"net/netip"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
)

// DefaultThreshold is the conservative stuck-route threshold used by the
// paper and its predecessors: 1 hour 30 minutes after withdrawal.
const DefaultThreshold = 90 * time.Minute

// PeerID identifies one collector session (a peer router address at a
// collector). The paper counts zombies both per peer router and per peer
// AS.
type PeerID struct {
	Collector string
	AS        bgp.ASN
	Addr      netip.Addr
}

// Route is one detected zombie route: a (peer, prefix, interval) whose
// state was still "present" at the detection threshold.
type Route struct {
	Peer   PeerID
	Prefix netip.Prefix
	// Interval is the beacon interval the detection ran in.
	Interval beacon.Interval
	// Path is the stuck AS path.
	Path bgp.ASPath
	// AnnouncedAt is the announcement time recovered from the Aggregator
	// BGP clock (falls back to the collector receive time).
	AnnouncedAt time.Time
	// LastUpdate is when the collector last heard about the prefix from
	// this peer before the detection instant.
	LastUpdate time.Time
	// Duplicate marks a stuck route whose announcement predates the
	// interval: it was already counted in an earlier interval and is
	// removed by the paper's Aggregator filter.
	Duplicate bool
}

// Outbreak is the set of zombie routes of one prefix in one interval.
type Outbreak struct {
	Prefix   netip.Prefix
	Interval beacon.Interval
	Routes   []Route
}

// PeerASes returns the distinct peer ASes infected in the outbreak.
func (o *Outbreak) PeerASes() []bgp.ASN {
	seen := make(map[bgp.ASN]bool)
	var out []bgp.ASN
	for _, r := range o.Routes {
		if !seen[r.Peer.AS] {
			seen[r.Peer.AS] = true
			out = append(out, r.Peer.AS)
		}
	}
	return out
}

// Paths returns the stuck AS paths of the outbreak.
func (o *Outbreak) Paths() []bgp.ASPath {
	out := make([]bgp.ASPath, 0, len(o.Routes))
	for _, r := range o.Routes {
		out = append(out, r.Path)
	}
	return out
}

// PathObservation records a path length seen at detection time, used for
// the paper's AS-path-length analysis (its Fig. 6).
type PathObservation struct {
	Peer   PeerID
	Prefix netip.Prefix
	// NormalLen is the AS path length held just before the withdrawal.
	NormalLen int
	// ZombieLen is the stuck path length (0 if the peer withdrew).
	ZombieLen int
	// Zombie reports whether this peer became a zombie in the interval.
	Zombie bool
	// PathChanged reports whether the stuck path differs from the normal
	// path (only meaningful when Zombie).
	PathChanged bool
	// Duplicate mirrors Route.Duplicate for the zombie case.
	Duplicate bool
}

// Report is the output of a detection run.
type Report struct {
	// Threshold the detection ran at.
	Threshold time.Duration
	// Intervals the detection evaluated (announcements).
	Intervals []beacon.Interval
	// VisiblePrefixes counts (prefix, interval) pairs seen announced by
	// at least one peer — the paper's table denominators.
	VisiblePrefixes int
	// Outbreaks, including duplicate routes (flagged, not removed): use
	// Filter to apply the paper's corrections.
	Outbreaks []Outbreak
	// Peers lists, sorted, the peers with an event on an interval's prefix
	// or a session event: the peers the detection could have seen. It is
	// the same whether the history tracked the beacon prefixes or every
	// prefix.
	Peers []PeerID
	// PathObs carries per-peer path-length observations when the
	// detector was configured to record them.
	PathObs []PathObservation
}

// FilterOptions selects which detections count.
type FilterOptions struct {
	// IncludeDuplicates keeps routes flagged by the Aggregator filter
	// ("with double-counting" in the paper's tables).
	IncludeDuplicates bool
	// ExcludePeerAS removes routes from these peer ASes (noisy peers).
	ExcludePeerAS map[bgp.ASN]bool
}

func (f *FilterOptions) keeps(r Route) bool {
	if !f.IncludeDuplicates && r.Duplicate {
		return false
	}
	if f.ExcludePeerAS != nil && f.ExcludePeerAS[r.Peer.AS] {
		return false
	}
	return true
}

// Filter applies the options and returns the surviving outbreaks
// (outbreaks whose routes are all filtered out disappear).
func (rep *Report) Filter(opts FilterOptions) []Outbreak {
	var out []Outbreak
	for _, ob := range rep.Outbreaks {
		var kept []Route
		for _, r := range ob.Routes {
			if opts.keeps(r) {
				kept = append(kept, r)
			}
		}
		if len(kept) > 0 {
			out = append(out, Outbreak{Prefix: ob.Prefix, Interval: ob.Interval, Routes: kept})
		}
	}
	return out
}

// CountRoutes returns the number of zombie routes across outbreaks.
func CountRoutes(obs []Outbreak) int {
	n := 0
	for _, ob := range obs {
		n += len(ob.Routes)
	}
	return n
}

// CountByFamily splits outbreak counts by address family.
func CountByFamily(obs []Outbreak) (v4, v6 int) {
	for _, ob := range obs {
		if ob.Prefix.Addr().Is4() {
			v4++
		} else {
			v6++
		}
	}
	return v4, v6
}
