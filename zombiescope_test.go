package zombiescope_test

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"zombiescope"
	"zombiescope/internal/bgp"
	"zombiescope/internal/topology"
)

// TestFacadeEndToEnd drives the whole public surface: topology →
// simulator + faults → collector fleet → MRT bytes → detection → root
// cause, using only the root package.
func TestFacadeEndToEnd(t *testing.T) {
	g, err := zombiescope.GenerateTopology(topology.GenerateConfig{
		Seed: 11, Tier1Count: 3, Tier2Count: 6, Tier3Count: 8, StubCount: 6,
		Tier2PeerProb: 0.2, FirstASN: 64500,
	})
	if err != nil {
		t.Fatal(err)
	}
	stubs := g.TierASNs(4)
	origin := stubs[0]
	peerASes := stubs[1:5]

	sim := zombiescope.NewSimulator(g, zombiescope.SimConfig{Seed: 11})
	fleet := zombiescope.NewFleet()
	sim.SetSink(fleet)
	for i, asn := range peerASes {
		addr := netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, byte(i), 15: 1})
		if err := sim.AddCollectorSession(zombiescope.Session{
			Collector: "rrc00", PeerAS: asn, PeerIP: addr, AFI: bgp.AFIIPv6,
		}); err != nil {
			t.Fatal(err)
		}
	}

	t0 := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	prefix := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	agg := &zombiescope.Aggregator{ASN: origin, Addr: zombiescope.AggregatorClock(t0)}
	sim.EstablishCollectorSessions(t0.Add(-time.Minute))
	if err := sim.ScheduleAnnounce(t0, origin, prefix, agg); err != nil {
		t.Fatal(err)
	}
	if err := sim.ScheduleWithdraw(t0.Add(15*time.Minute), origin, prefix); err != nil {
		t.Fatal(err)
	}
	// Wedge the first peer's provider link: one zombie.
	victim := peerASes[0]
	provider := g.AS(victim).Providers()[0]
	sim.Faults().WedgeLink(provider, victim, 0, t0.Add(10*time.Minute), t0.Add(48*time.Hour),
		zombiescope.MatchWithin(netip.MustParsePrefix("2a0d:3dc1::/32")))
	sim.RunAll()

	interval := zombiescope.BeaconInterval{
		Prefix: prefix, AnnounceAt: t0,
		WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour),
	}
	det := &zombiescope.Detector{}
	rep, err := det.Detect(fleet.UpdatesData(), []zombiescope.BeaconInterval{interval})
	if err != nil {
		t.Fatal(err)
	}
	obs := rep.Filter(zombiescope.FilterOptions{})
	if len(obs) != 1 {
		t.Fatalf("outbreaks = %d, want 1", len(obs))
	}
	var sawVictim bool
	for _, r := range obs[0].Routes {
		if r.Peer.AS == victim {
			sawVictim = true
		}
	}
	if !sawVictim {
		t.Errorf("wedged peer %s not among zombie routes", victim)
	}
	if _, ok := zombiescope.InferRootCause(obs[0].Paths()); !ok {
		t.Error("no root cause inferred")
	}
}

// TestConvergenceProperty: for random small topologies without faults, an
// announce reaches every AS and a withdrawal removes every route — the
// simulator's core invariant.
func TestConvergenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := topology.GenerateConfig{
			Seed:       seed,
			Tier1Count: 2 + int(seed%3),
			Tier2Count: 4 + int(seed%5),
			Tier3Count: 6 + int(seed%7),
			StubCount:  4,
			FirstASN:   64500,
		}
		g, err := topology.Generate(cfg)
		if err != nil {
			return false
		}
		stub := g.TierASNs(4)[int(seed%4)]
		sim := zombiescope.NewSimulator(g, zombiescope.SimConfig{Seed: seed})
		t0 := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
		prefix := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
		sim.ScheduleAnnounce(t0, stub, prefix, nil)
		sim.Run(t0.Add(time.Hour))
		if got := sim.RouteCount(prefix); got != g.Len() {
			t.Logf("seed %d: %d of %d ASes have the route", seed, got, g.Len())
			return false
		}
		sim.ScheduleWithdraw(t0.Add(2*time.Hour), stub, prefix)
		sim.RunAll()
		return sim.RouteCount(prefix) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

// TestDetectorInvariantsProperty: dedup and exclusions never increase
// counts, and outbreak counts never exceed interval counts — over random
// fault configurations.
func TestDetectorInvariantsProperty(t *testing.T) {
	f := func(seed uint64, dropPct uint8) bool {
		g, err := topology.Generate(topology.GenerateConfig{
			Seed: seed, Tier1Count: 3, Tier2Count: 5, Tier3Count: 8, StubCount: 6, FirstASN: 64500,
		})
		if err != nil {
			return false
		}
		stubs := g.TierASNs(4)
		origin := stubs[0]
		sim := zombiescope.NewSimulator(g, zombiescope.SimConfig{Seed: seed})
		fleet := zombiescope.NewFleet()
		sim.SetSink(fleet)
		for i, asn := range stubs[1:] {
			addr := netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, byte(i), 15: 2})
			if err := sim.AddCollectorSession(zombiescope.Session{
				Collector: "rrc00", PeerAS: asn, PeerIP: addr, AFI: bgp.AFIIPv6,
			}); err != nil {
				return false
			}
		}
		sim.Faults().GlobalWithdrawalDrop(float64(dropPct%50)/100, nil)
		t0 := time.Date(2024, 6, 10, 0, 0, 0, 0, time.UTC)
		prefix := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
		var intervals []zombiescope.BeaconInterval
		for i := 0; i < 4; i++ {
			start := t0.Add(time.Duration(i) * 4 * time.Hour)
			agg := &zombiescope.Aggregator{ASN: origin, Addr: zombiescope.AggregatorClock(start)}
			sim.ScheduleAnnounce(start, origin, prefix, agg)
			sim.ScheduleWithdraw(start.Add(2*time.Hour), origin, prefix)
			intervals = append(intervals, zombiescope.BeaconInterval{
				Prefix: prefix, AnnounceAt: start,
				WithdrawAt: start.Add(2 * time.Hour), End: start.Add(4 * time.Hour),
			})
		}
		sim.RunAll()
		rep, err := (&zombiescope.Detector{}).Detect(fleet.UpdatesData(), intervals)
		if err != nil {
			return false
		}
		withDup := rep.Filter(zombiescope.FilterOptions{IncludeDuplicates: true})
		noDup := rep.Filter(zombiescope.FilterOptions{})
		if len(noDup) > len(withDup) {
			return false // dedup increased outbreaks
		}
		if len(withDup) > len(intervals) {
			return false // more outbreaks than intervals is impossible
		}
		// Excluding any one peer never increases the count.
		for _, p := range rep.Peers {
			excl := rep.Filter(zombiescope.FilterOptions{
				ExcludePeerAS: map[bgp.ASN]bool{p.AS: true},
			})
			if len(excl) > len(noDup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Error(err)
	}
}

// TestStuckRouteVisibleUntilCleared: a facade-level regression of the
// lifespan pipeline: a wedged route stays in RIB dumps until the operator
// clears it, and the measured duration matches the clearing schedule.
func TestStuckRouteVisibleUntilCleared(t *testing.T) {
	g := zombiescope.NewTopology()
	g.AddAS(1, 1)
	g.AddAS(10, 2)
	g.AddAS(100, 3)
	g.AddAS(200, 3)
	for _, l := range [][2]zombiescope.ASN{{10, 1}, {100, 10}, {200, 10}} {
		if err := g.AddC2P(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	sim := zombiescope.NewSimulator(g, zombiescope.SimConfig{Seed: 5})
	fleet := zombiescope.NewFleet()
	sim.SetSink(fleet)
	sess := zombiescope.Session{Collector: "rrc00", PeerAS: 200,
		PeerIP: netip.MustParseAddr("2001:db8::1"), AFI: bgp.AFIIPv6}
	if err := sim.AddCollectorSession(sess); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	prefix := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	sim.ScheduleAnnounce(t0, 100, prefix, nil)
	sim.ScheduleWithdraw(t0.Add(15*time.Minute), 100, prefix)
	sim.Faults().DropWithdrawals(10, 200, 1.0, nil)
	clearAt := t0.Add(10 * 24 * time.Hour)
	if err := sim.ScheduleClearRoutes(clearAt, 200, nil); err != nil {
		t.Fatal(err)
	}
	// Dump every 8h for 20 days.
	for ts := t0.Add(8 * time.Hour); ts.Before(t0.Add(20 * 24 * time.Hour)); ts = ts.Add(8 * time.Hour) {
		sim.Run(ts)
		fleet.SnapshotRIBs(ts)
	}
	sim.RunAll()
	iv := zombiescope.BeaconInterval{Prefix: prefix, AnnounceAt: t0,
		WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(30 * 24 * time.Hour)}
	lr, err := zombiescope.TrackLifespans(fleet.DumpData(), []zombiescope.BeaconInterval{iv},
		zombiescope.LifespanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pl := lr.Prefixes[prefix]
	if pl == nil {
		t.Fatal("prefix missing from lifespan report")
	}
	dur, ok := pl.Duration(nil, nil)
	if !ok {
		t.Fatal("no duration")
	}
	days := dur.Hours() / 24
	if days < 9 || days > 10.5 {
		t.Errorf("stuck for %.1f days, want ~10 (cleared on day 10)", days)
	}
}
