// Package anomalytest generates the anomaly-scenario fixture that tests
// in several packages share: one deterministic synthetic outbreak per
// anomaly detector, sharing a single topology and beacon campaign so the
// cross-scenario false-positive matrix is meaningful — every scenario
// carries the same benign background, plus exactly one pathology. The
// generator kinds are named after the detectors they target; "mixed"
// combines the two live-path pathologies for the chaos streaming soak.
// It lives outside the experiments package because no experiment runs it.
package anomalytest

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

// Scenario actor ASes. 100 originates the beacons and the stable
// service prefixes; 200 and 300 are the collector peers; 400 hijacks;
// 500 leaks hyper-specifics.
const (
	originAS   bgp.ASN = 100
	peer1AS    bgp.ASN = 200
	peer2AS    bgp.ASN = 300
	hijackerAS bgp.ASN = 400
	leakerAS   bgp.ASN = 500
)

// Stable prefixes outside the beacon base, one per pathology, so an
// injection can never collide with a beacon interval.
var (
	moasPrefix  = netip.MustParsePrefix("2a0e:aaaa::/48")
	stormPrefix = netip.MustParsePrefix("2a0e:cccc::/48")
	leakBase6   = netip.MustParsePrefix("2a0e:dddd::/48")
	leakBase4   = netip.MustParsePrefix("198.51.100.0/24")
)

// scenarioStart anchors every scenario; the beacon
// campaign covers one day at a 6-hour stride, reproducible with
// zombiehunt's author schedule flags (-approach 24h -origin 100
// -stride 24 -from/-to on this day).
var (
	scenarioStart = time.Date(2024, 6, 10, 0, 0, 0, 0, time.UTC)
	scenarioEnd   = scenarioStart.Add(24 * time.Hour)
	runUntil      = scenarioStart.Add(30 * time.Hour)
)

// slotStride thins the author beacon grid to 4 slots/day.
const slotStride = 24

// Kinds lists the generator kinds of the false-positive matrix,
// in detector-name order. Each kind's scenario must trip exactly the
// detector of the same name and no other.
func Kinds() []string {
	return []string{"community", "hyperspecific", "moas", "zombie"}
}

// Scenario is one generated outbreak: the archive, the beacon ground
// truth, and the window to run the detectors over.
type Scenario struct {
	Updates   map[string][]byte
	Intervals []beacon.Interval
	Window    zombie.Window
}

// buildGraph wires the scenario topology: two tier-1s, three
// transits, the origin, two collector-peer ASes, and the two bad actors
// behind transit 12.
func buildGraph() (*topology.Graph, error) {
	g := topology.New()
	g.AddAS(1, 1)
	g.AddAS(2, 1)
	g.AddAS(10, 2)
	g.AddAS(11, 2)
	g.AddAS(12, 2)
	g.AddAS(originAS, 3)
	g.AddAS(peer1AS, 3)
	g.AddAS(peer2AS, 3)
	g.AddAS(hijackerAS, 3)
	g.AddAS(leakerAS, 3)
	type link struct {
		kind string
		a, b bgp.ASN
	}
	links := []link{
		{"p", 1, 2},
		{"c", 10, 1}, {"c", 11, 1}, {"c", 11, 2}, {"c", 12, 2},
		{"c", originAS, 10},
		{"c", peer1AS, 11},
		{"c", peer2AS, 12},
		{"c", hijackerAS, 12},
		{"c", leakerAS, 12},
	}
	for _, l := range links {
		var err error
		if l.kind == "c" {
			err = g.AddC2P(l.a, l.b)
		} else {
			err = g.AddP2P(l.a, l.b)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Generate builds the archive for one pathology kind. Every
// kind shares the same benign beacon campaign (announced and withdrawn
// cleanly, no faults); the kind decides the single injection layered on
// top. Kinds: "zombie", "moas", "hyperspecific", "community", "mixed"
// (moas + community, for the streaming chaos soak), and "all" (every
// injection at once, for the differential determinism harness).
func Generate(kind string, seed uint64) (*Scenario, error) {
	g, err := buildGraph()
	if err != nil {
		return nil, err
	}
	sim := netsim.New(g, netsim.Config{Seed: seed})
	fleet := collector.NewFleet()
	sim.SetSink(fleet)

	sessions := []netsim.Session{
		{Collector: "rrc00", PeerAS: peer1AS, PeerIP: netip.MustParseAddr("2001:db8:feed::200"), AFI: bgp.AFIIPv6},
		{Collector: "rrc00", PeerAS: peer1AS, PeerIP: netip.MustParseAddr("192.0.2.200"), AFI: bgp.AFIIPv4},
		{Collector: "rrc01", PeerAS: peer2AS, PeerIP: netip.MustParseAddr("2001:db8:feed::300"), AFI: bgp.AFIIPv6},
		{Collector: "rrc01", PeerAS: peer2AS, PeerIP: netip.MustParseAddr("192.0.2.130"), AFI: bgp.AFIIPv4},
	}
	for _, s := range sessions {
		if err := sim.AddCollectorSession(s); err != nil {
			return nil, err
		}
	}

	// The shared benign background: the author-style beacon campaign,
	// announced and withdrawn cleanly by the origin.
	start, end := scenarioStart, scenarioEnd
	sched := &beacon.AuthorSchedule{Base: experiments.AuthorBase, OriginAS: originAS, Approach: beacon.Recycle24h, SlotStride: slotStride}
	events := sched.Events(start, end)
	intervals := sched.Intervals(start, end)
	if err := experiments.ScheduleBeacons(sim, originAS, events); err != nil {
		return nil, err
	}

	sc := &Scenario{
		Intervals: intervals,
		Window:    zombie.Window{From: start.Add(-time.Hour), To: runUntil},
	}

	injectMOAS := func() error {
		// The origin holds the service prefix all day; the hijacker
		// co-originates it for 4 hours. Peer 300 (behind the hijacker's
		// transit) flips to the bogus origin while peer 200 keeps the
		// legitimate one — a concurrent two-origin conflict well past the
		// 1-hour MOAS threshold, withdrawn cleanly on both sides.
		if err := sim.ScheduleAnnounce(start.Add(time.Hour), originAS, moasPrefix, nil); err != nil {
			return err
		}
		if err := sim.ScheduleMOASFlip(start.Add(4*time.Hour), hijackerAS, moasPrefix, 4*time.Hour); err != nil {
			return err
		}
		return sim.ScheduleWithdraw(start.Add(20*time.Hour), originAS, moasPrefix)
	}
	injectStorm := func() error {
		// The origin holds the service prefix all day; peer 200's
		// collector sessions churn its community attribute once a minute
		// for half an hour while the route itself never changes.
		if err := sim.ScheduleAnnounce(start.Add(time.Hour), originAS, stormPrefix, nil); err != nil {
			return err
		}
		if err := sim.ScheduleCommunityStorm(peer1AS, stormPrefix,
			start.Add(3*time.Hour), start.Add(3*time.Hour+30*time.Minute), time.Minute); err != nil {
			return err
		}
		return sim.ScheduleWithdraw(start.Add(20*time.Hour), originAS, stormPrefix)
	}

	injectZombie := func() error {
		// Wedge the 06:00 beacon slot's withdrawal on the link into peer
		// 200: the peer holds the stale route for 6 hours until a session
		// reset clears it — the paper's outbreak shape.
		var slot beacon.Event
		found := false
		for _, ev := range events {
			if ev.Announce && ev.At.Equal(start.Add(6*time.Hour)) {
				slot, found = ev, true
				break
			}
		}
		if !found {
			return fmt.Errorf("anomalytest: no beacon slot at %v", start.Add(6*time.Hour))
		}
		wd := slot.At.Add(beacon.SlotDuration)
		wedgeEnd := wd.Add(6 * time.Hour)
		sim.Faults().WedgeLink(11, peer1AS, bgp.AFIIPv6, wd.Add(-5*time.Minute), wedgeEnd,
			func(q netip.Prefix) bool { return q == slot.Prefix })
		return sim.ScheduleSessionReset(wedgeEnd, 11, peer1AS)
	}
	injectLeak := func() error {
		// The leaker deaggregates one v4 and one v6 covering prefix into
		// hyper-specifics, holds them for 6 hours, and withdraws cleanly.
		if _, err := sim.ScheduleHyperSpecificLeak(start.Add(2*time.Hour), leakerAS, leakBase4, 30, 4, 6*time.Hour); err != nil {
			return err
		}
		_, err := sim.ScheduleHyperSpecificLeak(start.Add(2*time.Hour), leakerAS, leakBase6, 52, 4, 6*time.Hour)
		return err
	}

	switch kind {
	case "zombie":
		if err := injectZombie(); err != nil {
			return nil, err
		}
	case "moas":
		if err := injectMOAS(); err != nil {
			return nil, err
		}
	case "hyperspecific":
		if err := injectLeak(); err != nil {
			return nil, err
		}
	case "community":
		if err := injectStorm(); err != nil {
			return nil, err
		}
	case "mixed":
		if err := injectMOAS(); err != nil {
			return nil, err
		}
		if err := injectStorm(); err != nil {
			return nil, err
		}
	case "all":
		for _, inject := range []func() error{injectZombie, injectMOAS, injectLeak, injectStorm} {
			if err := inject(); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("anomalytest: unknown scenario kind %q", kind)
	}

	sim.EstablishCollectorSessions(start.Add(-time.Hour))
	for t := start; t.Before(runUntil); t = t.Add(2 * time.Hour) {
		sim.Run(t)
	}
	sim.RunAll()
	if err := fleet.Err(); err != nil {
		return nil, err
	}
	sc.Updates = fleet.UpdatesData()
	return sc, nil
}
