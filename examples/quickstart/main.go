// Quickstart: build a five-AS topology, announce and withdraw a beacon
// prefix, wedge one link so a stale route survives, and run the paper's
// zombie detection over the MRT archive the collector fleet produced.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"zombiescope"
	"zombiescope/internal/bgp"
)

func main() {
	// Topology:  tier1 (64500) on top, two transits below it, the beacon
	// origin under transitA, and a RIS-peer stub under transitB.
	const (
		tier1    zombiescope.ASN = 64500
		transitA zombiescope.ASN = 64501
		transitB zombiescope.ASN = 64502
		origin   zombiescope.ASN = 65010
		peerAS   zombiescope.ASN = 65020
	)
	g := zombiescope.NewTopology()
	g.AddAS(tier1, 1)
	g.AddAS(transitA, 2)
	g.AddAS(transitB, 2)
	g.AddAS(origin, 3)
	g.AddAS(peerAS, 3)
	for _, link := range [][2]zombiescope.ASN{
		{transitA, tier1}, {transitB, tier1}, {origin, transitA}, {peerAS, transitB},
	} {
		if err := g.AddC2P(link[0], link[1]); err != nil {
			log.Fatal(err)
		}
	}

	// A simulator with a collector fleet listening to the peer AS.
	sim := zombiescope.NewSimulator(g, zombiescope.SimConfig{Seed: 7})
	fleet := zombiescope.NewFleet()
	sim.SetSink(fleet)
	sess := zombiescope.Session{
		Collector: "rrc00",
		PeerAS:    peerAS,
		PeerIP:    netip.MustParseAddr("2001:db8:feed::1"),
		AFI:       bgp.AFIIPv6,
	}
	if err := sim.AddCollectorSession(sess); err != nil {
		log.Fatal(err)
	}

	// One beacon cycle: announce at t0, withdraw 15 minutes later. The
	// announcement carries the Aggregator BGP clock, as real beacons do.
	t0 := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	prefix := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	agg := &zombiescope.Aggregator{ASN: origin, Addr: zombiescope.AggregatorClock(t0)}
	sim.EstablishCollectorSessions(t0.Add(-time.Minute))
	if err := sim.ScheduleAnnounce(t0, origin, prefix, agg); err != nil {
		log.Fatal(err)
	}
	if err := sim.ScheduleWithdraw(t0.Add(15*time.Minute), origin, prefix); err != nil {
		log.Fatal(err)
	}

	// The fault: the link tier1 -> transitB silently stops delivering
	// messages just before the withdrawal (the RFC 9687 zero-window
	// wedge). transitB — and the peer below it — keep the stale route.
	sim.Faults().WedgeLink(tier1, transitB, 0,
		t0.Add(10*time.Minute), t0.Add(24*time.Hour), nil)

	sim.RunAll()

	// Detection, straight from the MRT bytes the collector wrote.
	interval := zombiescope.BeaconInterval{
		Prefix:     prefix,
		AnnounceAt: t0,
		WithdrawAt: t0.Add(15 * time.Minute),
		End:        t0.Add(24 * time.Hour),
	}
	det := &zombiescope.Detector{} // default 90-minute threshold
	report, err := det.Detect(fleet.UpdatesData(), []zombiescope.BeaconInterval{interval})
	if err != nil {
		log.Fatal(err)
	}
	outbreaks := report.Filter(zombiescope.FilterOptions{})
	fmt.Printf("beacon %s: %d zombie outbreak(s)\n", prefix, len(outbreaks))
	for _, ob := range outbreaks {
		for _, r := range ob.Routes {
			fmt.Printf("  stuck at %s (%s) with path %s, announced %s\n",
				r.Peer.AS, r.Peer.Collector, r.Path, r.AnnouncedAt.Format(time.TimeOnly))
		}
		if rc, ok := zombiescope.InferRootCause(ob.Paths()); ok {
			fmt.Printf("  palm-tree root cause candidate: %s (common subpath %s)\n",
				rc.Candidate, rc.SubpathString())
		}
	}
}
