// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver builds a synthetic scenario (topology,
// collectors, beacons, faults), runs the BGP simulator, writes MRT
// archives through the collector fleet, runs the zombie detectors over the
// archive bytes, and renders the same rows/series the paper reports.
//
// Scenarios are scaled-down but shape-preserving: the periods are shorter
// than the paper's (Scale divides the durations) and the topologies are a
// few hundred ASes rather than the Internet, so absolute counts are
// smaller; the comparisons the paper makes (who wins, by roughly what
// factor, where crossovers fall) are the reproduction target. See
// EXPERIMENTS.md for paper-vs-measured numbers.
package experiments

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/netsim"
	"zombiescope/internal/topology"
)

// NoisyReplicationPeer is the RIS peer the paper excludes in its
// replication analysis (AS16347, Inherent Adista SAS, at RRC21).
const NoisyReplicationPeer bgp.ASN = 16347

// RISOriginAS originates the RIS beacons (AS12654, the RIS routing
// beacons' origin).
const RISOriginAS bgp.ASN = 12654

// wedgeParams controls the long-lived link wedges that create
// multi-interval (double-counted) zombies for one address family.
type wedgeParams struct {
	count  int
	minDur time.Duration
	maxDur time.Duration
	// allCount of the count wedges freeze a broad prefix set at once
	// (the rest freeze 1-2 random prefixes); the paper observes that a
	// quarter of IPv4 outbreaks hit all beacons simultaneously.
	allCount int
	// broadSize bounds how many prefixes a broad (allCount) wedge
	// freezes; 0 means the whole family.
	broadSize int
}

// dropParams controls per-link withdrawal loss, creating single-interval
// (fresh) zombies for one address family.
type dropParams struct {
	// links is how many peer-adjacent links lose withdrawals.
	links int
	// prob is the per-withdrawal loss probability on those links.
	prob float64
}

// replicationPeriod is one of the paper's three measurement periods.
type replicationPeriod struct {
	name  string
	start time.Time
	days  int // already scaled

	wedge4, wedge6 wedgeParams
	drop4, drop6   dropParams
}

// The replication scenario's calibration against Tables 1–4.
const (
	// replicationPeers is how many RIS peer ASes there are besides the
	// noisy one.
	replicationPeers = 30
	// AS16347's two failure modes (the paper's Table 4 signature): its
	// IPv6 zombies are fresh every interval (withdrawals toward the
	// collector are lost with noisyV6DropProb ≈ 43%, likelihood barely
	// changed by dedup), while its IPv4 zombies are frozen long-wedge
	// duplicates (sessions wedge for noisyV4WedgeFrac of the period,
	// nearly all removed by dedup).
	noisyV6DropProb  = 0.43
	noisyV4WedgeFrac = 0.09
	// backgroundDropProb is a small per-withdrawal loss probability on
	// every directed link, spreading rare zombies across all
	// <beacon, peer> pairs as the paper observes in the wild.
	backgroundDropProb = 0.0004
)

// ReplicationConfig parameterizes the §3 replication scenario.
type ReplicationConfig struct {
	Seed  uint64
	scale int // divides the periods' durations; 0 means 8
}

// DefaultReplicationConfig mirrors the paper's three periods at 1/scale
// duration. scale=8 keeps a full run in seconds; scale=1 is the paper's
// full length.
func DefaultReplicationConfig(seed uint64, scale int) ReplicationConfig {
	return ReplicationConfig{Seed: seed, scale: scale}
}

// replicationPeriods is the paper's three periods at 1/scale duration.
func replicationPeriods(scale int) []replicationPeriod {
	if scale <= 0 {
		scale = 8
	}
	days := func(d int) int {
		s := d / scale
		if s < 2 {
			s = 2
		}
		return s
	}
	// Wedge counts scale with the (scaled) period length: each wedge
	// contributes a roughly fixed mass of multi-interval duplicates while
	// the fresh-zombie mass grows with the number of intervals, so keeping
	// the paper's reduction percentages across scales requires
	// proportional wedge counts.
	scaled := func(fullCount, fullDays, scaledDays int) int {
		c := fullCount * scaledDays / fullDays
		if c < 1 {
			c = 1
		}
		return c
	}
	d2018, dOct, dMar := days(44), days(89), days(59)
	return []replicationPeriod{
		{
			// 2018-07-19 – 2018-08-31: heavy IPv4 double-counting
			// (-57.8% after dedup), moderate IPv6 (-31%).
			name:   "Jul 19 - Aug 31, 2018",
			start:  time.Date(2018, 7, 19, 0, 0, 0, 0, time.UTC),
			days:   d2018,
			wedge4: wedgeParams{count: scaled(9, 44, d2018), allCount: scaled(9, 44, d2018), minDur: 16 * time.Hour, maxDur: 20 * time.Hour},
			wedge6: wedgeParams{count: scaled(8, 44, d2018), allCount: scaled(8, 44, d2018), minDur: 12 * time.Hour, maxDur: 15 * time.Hour},
			drop4:  dropParams{links: 5, prob: 0.006},
			drop6:  dropParams{links: 8, prob: 0.014},
		},
		{
			// 2017-10-01 – 2017-12-28: IPv4 -32.8%, IPv6 nearly no
			// double-counting.
			name:   "Oct 01 - Dec 28, 2017",
			start:  time.Date(2017, 10, 1, 0, 0, 0, 0, time.UTC),
			days:   dOct,
			wedge4: wedgeParams{count: scaled(10, 89, dOct), allCount: scaled(10, 89, dOct), broadSize: 9, minDur: 12 * time.Hour, maxDur: 15 * time.Hour},
			wedge6: wedgeParams{count: 2, allCount: 0, minDur: 2 * time.Hour, maxDur: 3 * time.Hour},
			drop4:  dropParams{links: 6, prob: 0.0085},
			drop6:  dropParams{links: 9, prob: 0.019},
		},
		{
			// 2017-03-01 – 2017-04-28: IPv4 -26%, IPv6 no
			// double-counting at all.
			name:   "Mar 01 - Apr 28, 2017",
			start:  time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC),
			days:   dMar,
			wedge4: wedgeParams{count: scaled(17, 59, dMar), allCount: scaled(17, 59, dMar), broadSize: 10, minDur: 12 * time.Hour, maxDur: 17 * time.Hour},
			wedge6: wedgeParams{count: 1, allCount: 0, minDur: 90 * time.Minute, maxDur: 3 * time.Hour},
			drop4:  dropParams{links: 10, prob: 0.019},
			drop6:  dropParams{links: 5, prob: 0.019},
		},
	}
}

// PeriodData is the archive of one replication period.
type PeriodData struct {
	Name      string // the period, e.g. "Jul 19 - Aug 31, 2018"
	Updates   map[string][]byte
	Intervals []beacon.Interval
	// Announcements per family, the likelihood denominators.
	Ann4, Ann6     int
	NoisyPeerAddrs []netip.Addr
}

// RunReplication simulates every period independently (as the paper
// processes them) and returns the archives.
func RunReplication(cfg ReplicationConfig) ([]*PeriodData, error) {
	var out []*PeriodData
	for i, period := range replicationPeriods(cfg.scale) {
		pd, err := runReplicationPeriod(period, cfg.Seed+uint64(i)*1000)
		if err != nil {
			return nil, fmt.Errorf("experiments: period %q: %w", period.name, err)
		}
		out = append(out, pd)
	}
	return out, nil
}

func runReplicationPeriod(period replicationPeriod, seed uint64) (*PeriodData, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e91))
	topoCfg := topology.GenerateConfig{
		Seed:          seed,
		Tier1Count:    5,
		Tier2Count:    15,
		Tier3Count:    25,
		StubCount:     10,
		Tier2PeerProb: 0.2,
		Tier3PeerProb: 0.03,
		FirstASN:      64500,
	}
	g, err := topology.Generate(topoCfg)
	if err != nil {
		return nil, err
	}
	// Beacon origin: a stub buying transit from two Tier-2s.
	t2 := g.TierASNs(2)
	t3 := g.TierASNs(3)
	g.AddAS(RISOriginAS, "ris-beacons", 4)
	if err := g.AddC2P(RISOriginAS, t2[0]); err != nil {
		return nil, err
	}
	if err := g.AddC2P(RISOriginAS, t2[1]); err != nil {
		return nil, err
	}
	// RIS peers: fresh stub ASes spread under tier-2/3 transits, plus the
	// noisy AS16347 at rrc21.
	collectors := []string{"rrc00", "rrc01", "rrc21"}
	peers := make([]bgp.ASN, 0, replicationPeers)
	for i := 0; i < replicationPeers; i++ {
		asn := bgp.ASN(65000 + i)
		g.AddAS(asn, fmt.Sprintf("ris-peer-%d", i), 4)
		var transit bgp.ASN
		if i%3 == 0 {
			transit = t2[rng.IntN(len(t2))]
		} else {
			transit = t3[rng.IntN(len(t3))]
		}
		if err := g.AddC2P(asn, transit); err != nil {
			return nil, err
		}
		peers = append(peers, asn)
	}
	g.AddAS(NoisyReplicationPeer, "Inherent Adista SAS", 4)
	if err := g.AddC2P(NoisyReplicationPeer, t2[2]); err != nil {
		return nil, err
	}

	sim := netsim.New(g, netsim.Config{Seed: seed})
	fleet := collector.NewFleet()
	sim.SetSink(fleet)

	var noisyAddrs []netip.Addr
	addSession := func(asn bgp.ASN, idx int, coll string) (netsim.Session, error) {
		var addr netip.Addr
		var afi bgp.AFI
		if idx%4 == 3 {
			addr = netip.AddrFrom4([4]byte{185, 1, byte(idx), byte(asn)})
			afi = bgp.AFIIPv4
		} else {
			a := [16]byte{0x20, 0x01, 0x07, 0xf8}
			a[4], a[5] = byte(idx), byte(asn>>8)
			a[15] = byte(asn)
			addr = netip.AddrFrom16(a)
			afi = bgp.AFIIPv6
		}
		sess := netsim.Session{Collector: coll, PeerAS: asn, PeerIP: addr, AFI: afi}
		return sess, sim.AddCollectorSession(sess)
	}
	for i, asn := range peers {
		if _, err := addSession(asn, i, collectors[i%len(collectors)]); err != nil {
			return nil, err
		}
	}
	noisySess, err := addSession(NoisyReplicationPeer, len(peers), "rrc21")
	if err != nil {
		return nil, err
	}
	noisyAddrs = append(noisyAddrs, noisySess.PeerIP)

	// Beacon schedule.
	v4Prefixes, v6Prefixes := beacon.DefaultRISPrefixes(RISOriginAS)
	sched := &beacon.RISSchedule{Prefixes4: v4Prefixes, Prefixes6: v6Prefixes, OriginAS: RISOriginAS}
	start := period.start
	end := start.Add(time.Duration(period.days) * 24 * time.Hour)

	// Faults.
	faults := sim.Faults()
	matchFamily := func(want bgp.AFI) netsim.PrefixMatcher {
		return func(p netip.Prefix) bool { return bgp.PrefixAFI(p) == want }
	}
	// AS16347's IPv6 failure mode: its exports toward the collector lose
	// withdrawals ~43% of the time — fresh zombies every interval, which
	// dedup barely changes (the paper's Table 4 signature).
	faults.DropCollectorWithdrawals(NoisyReplicationPeer, noisyV6DropProb,
		matchFamily(bgp.AFIIPv6))
	// Its IPv4 failure mode: long collector-session wedges covering
	// roughly noisyV4WedgeFrac of the period (back-to-back windows, so
	// coverage is exact) — frozen duplicates that dedup removes.
	for at := start; at.Before(end); {
		dur := 24*time.Hour + time.Duration(rng.Int64N(int64(48*time.Hour)))
		faults.WedgeCollectorSessions(NoisyReplicationPeer, bgp.AFIIPv4, at, at.Add(dur), nil)
		gap := time.Duration(float64(dur) * (1 - noisyV4WedgeFrac) / noisyV4WedgeFrac)
		at = at.Add(dur + gap)
	}

	// Long wedges on provider→peer links: multi-interval zombies. Each
	// wedge freezes either every beacon of the family or a small random
	// subset, and the session "recovers" with a reset at the wedge end
	// (hold-timer expiry in practice), clearing the stale routes.
	allOf := func(afi bgp.AFI) []netip.Prefix {
		if afi == bgp.AFIIPv4 {
			return v4Prefixes
		}
		return v6Prefixes
	}
	// Wedges anchor at a beacon withdrawal instant: withdrawals are
	// dropped for a two-minute grace window so the path-hunting
	// exploration route gets pinned (stuck routes differ from the normal
	// path, as the paper finds), then the session freezes entirely until
	// the reset, turning later intervals into Aggregator-flagged
	// duplicates.
	scheduleWedges := func(wp wedgeParams, afi bgp.AFI) error {
		period4h := 4 * time.Hour
		cycles := int(end.Sub(start)/period4h) - 1
		if cycles < 1 {
			cycles = 1
		}
		for i := 0; i < wp.count; i++ {
			peer := peers[rng.IntN(len(peers))]
			provider := g.AS(peer).Providers()[0]
			wStart := start.Add(time.Duration(rng.IntN(cycles))*period4h + 2*time.Hour)
			dur := wp.minDur + time.Duration(rng.Int64N(int64(wp.maxDur-wp.minDur)+1))
			match := matchFamily(afi)
			if i >= wp.allCount {
				pool := allOf(afi)
				subset := make(map[netip.Prefix]bool)
				for n := 1 + rng.IntN(2); n > 0; n-- {
					subset[pool[rng.IntN(len(pool))]] = true
				}
				match = func(p netip.Prefix) bool { return subset[p] }
			} else if wp.broadSize > 0 && wp.broadSize < len(allOf(afi)) {
				pool := allOf(afi)
				subset := make(map[netip.Prefix]bool)
				for _, k := range rng.Perm(len(pool))[:wp.broadSize] {
					subset[pool[k]] = true
				}
				match = func(p netip.Prefix) bool { return subset[p] }
			}
			grace := 2 * time.Minute
			faults.DropWithdrawalsDuring(provider, peer, 1.0, match, wStart, wStart.Add(grace))
			faults.WedgeLink(provider, peer, afi, wStart.Add(grace), wStart.Add(dur), match)
			if err := sim.ScheduleSessionReset(wStart.Add(dur), provider, peer); err != nil {
				return err
			}
		}
		return nil
	}
	if err := scheduleWedges(period.wedge4, bgp.AFIIPv4); err != nil {
		return nil, err
	}
	if err := scheduleWedges(period.wedge6, bgp.AFIIPv6); err != nil {
		return nil, err
	}
	// Withdrawal loss on peer links: fresh single-interval zombies. The
	// stale route is replaced by the next interval's announcement.
	scheduleDrops := func(dp dropParams, afi bgp.AFI) {
		for i := 0; i < dp.links; i++ {
			peer := peers[rng.IntN(len(peers))]
			provider := g.AS(peer).Providers()[0]
			faults.DropWithdrawals(provider, peer, dp.prob, matchFamily(afi))
		}
	}
	scheduleDrops(period.drop4, bgp.AFIIPv4)
	scheduleDrops(period.drop6, bgp.AFIIPv6)
	faults.GlobalWithdrawalDrop(backgroundDropProb, nil)

	// Run.
	sim.EstablishCollectorSessions(start.Add(-time.Minute))
	ann4, ann6 := 0, 0
	for _, ev := range sched.Events(start, end) {
		if ev.Announce {
			if ev.Prefix.Addr().Is4() {
				ann4++
			} else {
				ann6++
			}
			if err := sim.ScheduleAnnounce(ev.At, RISOriginAS, ev.Prefix, ev.Aggregator); err != nil {
				return nil, err
			}
		} else {
			if err := sim.ScheduleWithdraw(ev.At, RISOriginAS, ev.Prefix); err != nil {
				return nil, err
			}
		}
	}
	sim.RunAll()
	if err := fleet.Err(); err != nil {
		return nil, err
	}
	return &PeriodData{
		Name:           period.name,
		Updates:        fleet.UpdatesData(),
		Intervals:      sched.Intervals(start, end),
		Ann4:           ann4,
		Ann6:           ann6,
		NoisyPeerAddrs: noisyAddrs,
	}, nil
}
