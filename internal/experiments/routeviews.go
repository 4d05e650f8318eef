package experiments

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/netsim"
	"zombiescope/internal/topology"
	"zombiescope/internal/zombie"
)

func init() {
	register(Experiment{
		ID:    "DiscussionRouteViews",
		Title: "§5: the acknowledged RouteViews blind spot, quantified",
		Paper: "The paper detects zombies from RIPE RIS peers only, 'acknowledging the potential omission of zombie routes' from RouteViews peers. Adding a second collector platform with a disjoint peer set surfaces outbreaks the RIS-only view misses.",
		Run:   runRouteViews,
	})
}

// runRouteViews builds one topology with two collector platforms whose
// peer sets are disjoint, injects zombies under both, and compares what a
// RIS-only analysis sees against the combined view.
func runRouteViews(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	g, err := topology.Generate(topology.GenerateConfig{
		Seed: cfg.Seed, Tier1Count: 4, Tier2Count: 10, Tier3Count: 18, StubCount: 14,
		Tier2PeerProb: 0.2, FirstASN: 64500,
	})
	if err != nil {
		return nil, err
	}
	stubs := g.TierASNs(4)
	origin := stubs[0]
	risPeers := stubs[1:7]
	rvPeers := stubs[7:13]
	sim := netsim.New(g, netsim.Config{Seed: cfg.Seed})
	fleet := collector.NewFleet()
	sim.SetSink(fleet)
	addSessions := func(platform string, peers []bgp.ASN, octet byte) error {
		for i, asn := range peers {
			if err := sim.AddCollectorSession(netsim.Session{
				Collector: platform, PeerAS: asn,
				PeerIP: netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, octet, byte(i), 15: 1}),
				AFI:    bgp.AFIIPv6,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addSessions("rrc00", risPeers, 0xa0); err != nil {
		return nil, err
	}
	if err := addSessions("route-views2", rvPeers, 0xb0); err != nil {
		return nil, err
	}

	// Zombie faults on both platforms' peers: RIS-side outbreaks are
	// visible to both analyses; RouteViews-side ones only to the
	// combined view (provided the fault sits below the RIS peers'
	// vantage, which stub-adjacent links guarantee).
	for _, peer := range []bgp.ASN{risPeers[0], rvPeers[0], rvPeers[1]} {
		provider := g.AS(peer).Providers()[0]
		sim.Faults().DropWithdrawals(provider, peer, 0.35, nil)
	}

	start := time.Date(2024, 6, 10, 0, 0, 0, 0, time.UTC)
	end := start.Add(time.Duration(max(2, 16/cfg.Scale)) * 24 * time.Hour)
	sched := &beacon.AuthorSchedule{
		Base: AuthorBase, OriginAS: bgp.ASN(origin),
		Approach: beacon.Recycle24h, SlotStride: cfg.Scale,
	}
	if err := ScheduleBeacons(sim, origin, sched.Events(start, end)); err != nil {
		return nil, err
	}
	sim.EstablishCollectorSessions(start.Add(-time.Minute))
	sim.RunAll()
	if err := fleet.Err(); err != nil {
		return nil, err
	}

	intervals := sched.Intervals(start, end)
	updates := fleet.UpdatesData()
	risOnly := map[string][]byte{"rrc00": updates["rrc00"]}

	detect := func(u map[string][]byte) ([]zombie.Outbreak, error) {
		rep, err := (&zombie.Detector{}).Detect(u, intervals)
		if err != nil {
			return nil, err
		}
		return rep.Filter(zombie.FilterOptions{}), nil
	}
	risObs, err := detect(risOnly)
	if err != nil {
		return nil, err
	}
	combinedObs, err := detect(updates)
	if err != nil {
		return nil, err
	}
	d := zombie.Diff(combinedObs, risObs)
	missedOutbreaks := d.OutbreaksOnlyInA4 + d.OutbreaksOnlyInA6
	missedRoutes := d.RoutesOnlyInA4 + d.RoutesOnlyInA6

	var sb strings.Builder
	sb.WriteString("RIS-only vs RIS+RouteViews detection on the same scenario\n\n")
	fmt.Fprintf(&sb, "  RIS-only outbreaks:       %d (%d routes)\n", len(risObs), zombie.CountRoutes(risObs))
	fmt.Fprintf(&sb, "  combined-view outbreaks:  %d (%d routes)\n", len(combinedObs), zombie.CountRoutes(combinedObs))
	fmt.Fprintf(&sb, "  missed by the RIS-only view: %d outbreaks, %d routes\n", missedOutbreaks, missedRoutes)
	sb.WriteString("\nOutbreaks whose only infected vantage points peer with RouteViews are\n")
	sb.WriteString("invisible to a RIS-only analysis — the omission the paper acknowledges\n")
	sb.WriteString("and defers to future work (§5, §6).\n")
	return &Result{Text: sb.String(), Metrics: map[string]float64{
		"ris.outbreaks":      float64(len(risObs)),
		"combined.outbreaks": float64(len(combinedObs)),
		"missed.outbreaks":   float64(missedOutbreaks),
		"missed.routes":      float64(missedRoutes),
	}}, nil
}
