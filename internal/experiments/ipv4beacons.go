package experiments

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"zombiescope/internal/analysis"
	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/netsim"
	"zombiescope/internal/topology"
	"zombiescope/internal/zombie"
)

func init() {
	register(Experiment{
		ID:    "DiscussionIPv4Beacons",
		Title: "§6: IPv4 beacons with the compact /24 slot encoding",
		Paper: "Future work: the authors could not afford IPv4 space (~$500k for the IPv6-equivalent experiment); they call for a compact encoding to maximize space utilization. This experiment deploys the /24 slot-ordinal encoding (a /17 per 24h cycle) and shows the detection pipeline is family-agnostic.",
		Run:   runIPv4Beacons,
	})
}

// runIPv4Beacons deploys a day of IPv4 beacons using the compact slot
// encoding from internal/beacon/ipv4.go, injects a couple of zombie
// faults, and verifies the full pipeline (simulator → MRT → detection →
// dedup via the Aggregator clock) works identically for IPv4.
func runIPv4Beacons(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	g, err := topology.Generate(topology.GenerateConfig{
		Seed: cfg.Seed, Tier1Count: 4, Tier2Count: 10, Tier3Count: 16, StubCount: 10,
		Tier2PeerProb: 0.2, FirstASN: 64500,
	})
	if err != nil {
		return nil, err
	}
	stubs := g.TierASNs(4)
	origin := stubs[0]
	peers := stubs[1:8]
	sim := netsim.New(g, netsim.Config{Seed: cfg.Seed})
	fleet := collector.NewFleet()
	sim.SetSink(fleet)
	for i, asn := range peers {
		if err := sim.AddCollectorSession(netsim.Session{
			Collector: "rrc00", PeerAS: asn,
			PeerIP: netip.AddrFrom4([4]byte{185, 2, byte(i), 1}),
			AFI:    bgp.AFIIPv4,
		}); err != nil {
			return nil, err
		}
	}

	// Two days of 15-minute slots inside a /17 (the prefixes recycle on
	// day two, giving the Aggregator dedup something to do), thinned by
	// the scale.
	base := netip.MustParsePrefix("93.175.0.0/17")
	start := time.Date(2024, 6, 10, 0, 0, 0, 0, time.UTC)
	stride := cfg.Scale
	if stride < 1 {
		stride = 1
	}
	var intervals []beacon.Interval
	announcements := 0
	for slot := 0; slot < 192; slot += stride {
		at := start.Add(time.Duration(slot) * beacon.SlotDuration)
		p, err := beacon.EncodeAuthorPrefix4(base, at, beacon.Recycle24h)
		if err != nil {
			return nil, err
		}
		agg := &bgp.Aggregator{ASN: bgp.ASN(origin), Addr: beacon.AggregatorClock(at)}
		if err := sim.ScheduleAnnounce(at, origin, p, agg); err != nil {
			return nil, err
		}
		wd := at.Add(beacon.SlotDuration)
		if err := sim.ScheduleWithdraw(wd, origin, p); err != nil {
			return nil, err
		}
		intervals = append(intervals, beacon.Interval{
			Prefix: p, AnnounceAt: at, WithdrawAt: wd, End: at.Add(24 * time.Hour),
		})
		announcements++
	}
	// Faults: one peer loses withdrawals half the time, one long wedge
	// spans several slots (to exercise the dedup path on IPv4).
	victim := peers[0]
	provider := g.AS(victim).Providers()[0]
	sim.Faults().DropWithdrawals(provider, victim, 0.5, nil)
	// The wedge starts mid-slot (after the 2:00 announcement, before its
	// withdrawal) and lasts past the prefix's day-two reuse, so the
	// stuck route is re-detected in the second interval as a duplicate.
	wedgeVictim := peers[1]
	wedgeProvider := g.AS(wedgeVictim).Providers()[0]
	sim.Faults().WedgeLink(wedgeProvider, wedgeVictim, bgp.AFIIPv4,
		start.Add(2*time.Hour+5*time.Minute), start.Add(30*time.Hour), nil)

	sim.EstablishCollectorSessions(start.Add(-time.Minute))
	sim.RunAll()
	if err := fleet.Err(); err != nil {
		return nil, err
	}
	rep, err := (&zombie.Detector{}).Detect(fleet.UpdatesData(), intervals)
	if err != nil {
		return nil, err
	}
	withDup := rep.Filter(zombie.FilterOptions{IncludeDuplicates: true})
	deduped := rep.Filter(zombie.FilterOptions{})
	w4, w6 := zombie.CountByFamily(withDup)
	n4, _ := zombie.CountByFamily(deduped)

	var sb strings.Builder
	fmt.Fprintf(&sb, "IPv4 beacon deployment: %d slots inside %s (compact /24 encoding)\n\n", announcements, base)
	fmt.Fprintf(&sb, "  zombie outbreaks with double-counting: %d (all IPv4: %v)\n", w4, w6 == 0)
	fmt.Fprintf(&sb, "  after Aggregator-clock dedup:          %d (%s reduction)\n",
		n4, analysis.Reduction(w4, n4))
	sb.WriteString("\nThe detection pipeline is family-agnostic: IPv4 beacons ride in the\n")
	sb.WriteString("top-level NLRI/withdrawn fields instead of the MP attributes, the /24\n")
	sb.WriteString("slot encoding replaces the IPv6 prefix clock, and the Aggregator clock\n")
	sb.WriteString("dedup works unchanged. A /17 hosts a full day of unique beacons; a /13\n")
	sb.WriteString("hosts the 15-day recycle — the space-utilization arithmetic §6 asks for.\n")
	return &Result{Text: sb.String(), Metrics: map[string]float64{
		"announcements": float64(announcements),
		"withDup":       float64(w4),
		"deduped":       float64(n4),
		"v6Leak":        float64(w6),
	}}, nil
}
