package main

import (
	"fmt"
	"net/netip"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/experiments"
	"zombiescope/internal/netsim"
	"zombiescope/internal/topology"
	"zombiescope/internal/zombie"
)

// The storm scenario is the counterpart of the author scenario on the
// input property Krenc et al. measured: nearly every update changes
// communities only. A generated ~400-AS Internet carries a thin, clean
// beacon campaign as background; on top of it a block of all-day service
// prefixes is churned by community storms on most collector peers, a few
// of them are co-originated (MOAS) and one AS leaks hyper-specifics. No
// fault is injected, so the zombie detector must find nothing and the
// three other detectors must each find their pathology.
const (
	stormSessions   = 24
	stormServices   = 64
	stormPeers      = 16
	stormPeriod     = 30 * time.Second
	stormLength     = 2 * time.Hour
	stormMOAS       = 16
	stormLeaks      = 64
	stormBeaconStep = 8
)

// stormTopologySeed fixes the generated Internet, as the author scenario's
// graph is fixed: the run's seed draws the link delays, not the map, so
// path lengths — and with them the cost of a record — hold across seeds.
const stormTopologySeed = 2024

var (
	stormStart    = time.Date(2024, 6, 10, 0, 0, 0, 0, time.UTC)
	stormEnd      = stormStart.Add(24 * time.Hour)
	stormLeakBase = netip.MustParsePrefix("2a0e:dddd::/48")
)

// stormServicePrefix is the i-th all-day service prefix, outside the
// beacon base so it never collides with a beacon interval.
func stormServicePrefix(i int) netip.Prefix {
	a := [16]byte{0x2a, 0x0e, 0xaa, byte(i)}
	return netip.PrefixFrom(netip.AddrFrom16(a), 48)
}

// generateStorm simulates the storm scenario and returns its archive (no
// RIB dumps), the beacon intervals and the anomaly evaluation window.
func generateStorm(seed uint64) (*huntInput, error) {
	g, err := topology.Generate(topology.DefaultGenerateConfig(stormTopologySeed))
	if err != nil {
		return nil, err
	}
	stubs := g.TierASNs(4)
	transits := g.TierASNs(3)
	if len(stubs) < 3 || len(stubs)+len(transits) < stormSessions+3 {
		return nil, fmt.Errorf("storm: topology too small (%d stubs, %d transits)", len(stubs), len(transits))
	}
	origin, hijacker, leaker := stubs[0], stubs[1], stubs[2]

	sim := netsim.New(g, netsim.Config{Seed: seed})
	fleet := collector.NewFleet()
	sim.SetSink(fleet)

	// Collector peers: the remaining stubs first, then small transits, one
	// IPv6 session each, spread over three collectors.
	peers := append(append([]bgp.ASN(nil), stubs[3:]...), transits...)[:stormSessions]
	for i, asn := range peers {
		a := [16]byte{0x20, 0x01, 0x0d, 0xb8, 0xfe, 0xed, byte(i >> 8), byte(i), 15: 1}
		sess := netsim.Session{
			Collector: fmt.Sprintf("rrc%02d", i%3),
			PeerAS:    asn,
			PeerIP:    netip.AddrFrom16(a),
			AFI:       bgp.AFIIPv6,
		}
		if err := sim.AddCollectorSession(sess); err != nil {
			return nil, err
		}
	}

	// Benign background: a thinned author beacon day, announced and
	// withdrawn cleanly.
	sched := &beacon.AuthorSchedule{Base: experiments.AuthorBase, OriginAS: origin, Approach: beacon.Recycle24h, SlotStride: stormBeaconStep}
	for _, ev := range sched.Events(stormStart, stormEnd) {
		if ev.Announce {
			err = sim.ScheduleAnnounce(ev.At, origin, ev.Prefix, ev.Aggregator)
		} else {
			err = sim.ScheduleWithdraw(ev.At, origin, ev.Prefix)
		}
		if err != nil {
			return nil, err
		}
	}

	// Service prefixes held all day; the first stormMOAS of them are
	// co-originated by the hijacker for four hours.
	for i := 0; i < stormServices; i++ {
		p := stormServicePrefix(i)
		if err := sim.ScheduleAnnounce(stormStart.Add(time.Hour), origin, p, nil); err != nil {
			return nil, err
		}
		if err := sim.ScheduleWithdraw(stormStart.Add(22*time.Hour), origin, p); err != nil {
			return nil, err
		}
		if i < stormMOAS {
			if err := sim.ScheduleMOASFlip(stormStart.Add(8*time.Hour), hijacker, p, 4*time.Hour); err != nil {
				return nil, err
			}
		}
	}
	// Community storms: every service prefix on the first stormPeers peers.
	for _, asn := range peers[:stormPeers] {
		for i := 0; i < stormServices; i++ {
			from := stormStart.Add(3 * time.Hour)
			if err := sim.ScheduleCommunityStorm(asn, stormServicePrefix(i), from, from.Add(stormLength), stormPeriod); err != nil {
				return nil, err
			}
		}
	}
	if _, err := sim.ScheduleHyperSpecificLeak(stormStart.Add(14*time.Hour), leaker, stormLeakBase, 56, stormLeaks, 6*time.Hour); err != nil {
		return nil, err
	}

	sim.EstablishCollectorSessions(stormStart.Add(-time.Hour))
	sim.RunAll()
	if err := fleet.Err(); err != nil {
		return nil, err
	}
	return &huntInput{
		updates:   fleet.UpdatesData(),
		dumps:     map[string][]byte{},
		intervals: sched.Intervals(stormStart, stormEnd),
		window:    zombie.Window{From: stormStart.Add(-time.Hour), To: stormEnd.Add(6 * time.Hour)},
	}, nil
}
