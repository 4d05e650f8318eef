package zombiescope_test

import (
	"fmt"
	"net/netip"
	"time"

	"zombiescope"
	"zombiescope/internal/bgp"
)

// A complete zombie hunt through the public facade: topology → simulator
// with a wedged link → collector fleet → MRT bytes → detection.
func Example() {
	g := zombiescope.NewTopology()
	g.AddAS(64500, 1)
	g.AddAS(64501, 2)
	g.AddAS(65010, 3)
	g.AddAS(65020, 3)
	for _, l := range [][2]zombiescope.ASN{{64501, 64500}, {65010, 64501}, {65020, 64501}} {
		if err := g.AddC2P(l[0], l[1]); err != nil {
			panic(err)
		}
	}
	sim := zombiescope.NewSimulator(g, zombiescope.SimConfig{Seed: 1})
	fleet := zombiescope.NewFleet()
	sim.SetSink(fleet)
	if err := sim.AddCollectorSession(zombiescope.Session{
		Collector: "rrc00", PeerAS: 65020,
		PeerIP: netip.MustParseAddr("2001:db8::1"), AFI: bgp.AFIIPv6,
	}); err != nil {
		panic(err)
	}
	t0 := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	prefix := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	sim.ScheduleAnnounce(t0, 65010, prefix,
		&zombiescope.Aggregator{ASN: 65010, Addr: zombiescope.AggregatorClock(t0)})
	sim.ScheduleWithdraw(t0.Add(15*time.Minute), 65010, prefix)
	// The withdrawal never reaches the peer: a zombie is born.
	sim.Faults().DropWithdrawals(64501, 65020, 1.0, nil)
	sim.RunAll()

	rep, err := (&zombiescope.Detector{}).Detect(fleet.UpdatesData(), []zombiescope.BeaconInterval{{
		Prefix: prefix, AnnounceAt: t0,
		WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour),
	}})
	if err != nil {
		panic(err)
	}
	for _, ob := range rep.Filter(zombiescope.FilterOptions{}) {
		for _, r := range ob.Routes {
			fmt.Printf("zombie at %s: path %s\n", r.Peer.AS, r.Path)
		}
	}
	// Output:
	// zombie at AS65020: path 65020 64501 65010
}
