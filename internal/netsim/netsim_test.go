package netsim

import (
	"net/netip"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/rpki"
	"zombiescope/internal/topology"
)

// Test topology:
//
//	   1 ===== 2        (Tier-1 peering)
//	  / \     / \
//	10   11--+   12     (11 buys from both 1 and 2)
//	 |    |       |
//	100  200     300    (100 = beacon origin, 200 = collector peer)
func testGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.New()
	for _, a := range []struct {
		asn  bgp.ASN
		tier int
	}{{1, 1}, {2, 1}, {10, 2}, {11, 2}, {12, 2}, {100, 3}, {200, 3}, {300, 3}} {
		g.AddAS(a.asn, a.tier)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddP2P(1, 2))
	must(g.AddC2P(10, 1))
	must(g.AddC2P(11, 1))
	must(g.AddC2P(11, 2))
	must(g.AddC2P(12, 2))
	must(g.AddC2P(100, 10))
	must(g.AddC2P(200, 11))
	must(g.AddC2P(300, 12))
	return g
}

var (
	simStart = time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	beaconP  = netip.MustParsePrefix("2a0d:3dc1:1200::/48")
)

const originAS bgp.ASN = 100

func newTestSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return New(testGraph(t), cfg)
}

func TestAnnouncePropagatesEverywhere(t *testing.T) {
	s := newTestSim(t, Config{})
	if err := s.ScheduleAnnounce(simStart, originAS, beaconP, nil); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	for _, asn := range []bgp.ASN{1, 2, 10, 11, 12, 100, 200, 300} {
		if !s.HasRoute(asn, beaconP) {
			t.Errorf("%s has no route after announce", asn)
		}
	}
	if got := s.RouteCount(beaconP); got != 8 {
		t.Errorf("RouteCount = %d, want 8", got)
	}
}

func TestWithdrawCleansUpEverywhere(t *testing.T) {
	s := newTestSim(t, Config{})
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.RunAll()
	if got := s.RouteCount(beaconP); got != 0 {
		t.Errorf("RouteCount after withdraw = %d, want 0", got)
	}
}

func TestASPathShape(t *testing.T) {
	s := newTestSim(t, Config{})
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.RunAll()
	// 200 must have learned via its provider 11; the path ends at the
	// origin.
	path, ok := s.BestRoute(200, beaconP)
	if !ok {
		t.Fatal("200 has no route")
	}
	asns := path.ASNs()
	if asns[0] != 11 {
		t.Errorf("first hop %v, want 11", asns[0])
	}
	if asns[len(asns)-1] != originAS {
		t.Errorf("last hop %v, want %v", asns[len(asns)-1], originAS)
	}
	origin, _ := path.Origin()
	if origin != originAS {
		t.Errorf("Origin() = %v", origin)
	}
}

func TestValleyFreePropagation(t *testing.T) {
	// A prefix originated by 200 (customer of 11 only): 12 must learn it
	// through 2 (its provider), never via a peer-to-peer valley.
	s := newTestSim(t, Config{})
	p := netip.MustParsePrefix("2001:db8:200::/48")
	s.ScheduleAnnounce(simStart, 200, p, nil)
	s.RunAll()
	path, ok := s.BestRoute(300, p)
	if !ok {
		t.Fatal("300 has no route")
	}
	// 300's path must go through its provider 12.
	if path.ASNs()[0] != 12 {
		t.Errorf("300 learned via %v, want via 12: %s", path.ASNs()[0], path)
	}
	// 1 and 2: 1 hears from customer 11; 2 hears from 11 too. 1 must NOT
	// re-export its peer-learned route... but 1's route is customer-
	// learned here, so both Tier-1s have it.
	if !s.HasRoute(1, p) || !s.HasRoute(2, p) {
		t.Error("tier-1s missing customer route")
	}
}

func TestCustomerRoutePreferred(t *testing.T) {
	// 11 hears 100's prefix from providers 1 and 2 only — but if 200
	// originates, 11 hears it from customer 200 directly and must prefer
	// that even though path lengths tie or differ.
	s := newTestSim(t, Config{})
	p := netip.MustParsePrefix("2001:db8:200::/48")
	s.ScheduleAnnounce(simStart, 200, p, nil)
	s.RunAll()
	path, ok := s.BestRoute(11, p)
	if !ok {
		t.Fatal("11 has no route")
	}
	if want := "200"; path.String() != want {
		t.Errorf("11's best path %q, want %q (direct customer)", path, want)
	}
}

func TestWedgeCreatesZombie(t *testing.T) {
	s := newTestSim(t, Config{})
	// Wedge 1→11 starting after the announce has propagated.
	wedgeStart := simStart.Add(5 * time.Minute)
	s.Faults().WedgeLink(1, 11, 0, wedgeStart, wedgeStart.Add(24*time.Hour), nil)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.RunAll()
	// 11 never saw the withdrawal on its best session (1→11) and its
	// alternative (2→11) got withdrawn: stale route survives.
	if !s.HasRoute(11, beaconP) {
		t.Fatal("11 lost the route despite the wedge — no zombie")
	}
	// Its customer 200 inherits the zombie.
	if !s.HasRoute(200, beaconP) {
		t.Error("200 lost the route; zombie did not propagate")
	}
	// The clean side of the topology converged.
	for _, asn := range []bgp.ASN{1, 2, 10, 12, 100, 300} {
		if s.HasRoute(asn, beaconP) {
			t.Errorf("%s still has a route", asn)
		}
	}
	// The zombie path is stale but valid: through 1 toward the origin.
	path, _ := s.BestRoute(11, beaconP)
	if path.ASNs()[0] != 1 {
		t.Errorf("zombie path %s, want via 1", path)
	}
}

func TestWedgeAFISelective(t *testing.T) {
	s := newTestSim(t, Config{})
	v4 := netip.MustParsePrefix("93.175.146.0/24")
	wedgeStart := simStart.Add(5 * time.Minute)
	// Wedge only the IPv6 session 1→11.
	s.Faults().WedgeLink(1, 11, bgp.AFIIPv6, wedgeStart, wedgeStart.Add(24*time.Hour), nil)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleAnnounce(simStart, originAS, v4, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, v4)
	s.RunAll()
	if !s.HasRoute(11, beaconP) {
		t.Error("IPv6 zombie missing")
	}
	if s.HasRoute(11, v4) {
		t.Error("IPv4 route wedged despite IPv6-only wedge")
	}
}

func TestDropWithdrawalsProbabilistic(t *testing.T) {
	s := newTestSim(t, Config{})
	s.Faults().DropWithdrawals(1, 11, 1.0, nil) // always drop
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.RunAll()
	if !s.HasRoute(11, beaconP) {
		t.Error("withdrawal-drop fault did not create a zombie")
	}
	if s.Stats().MessagesDropped == 0 {
		t.Error("no drops counted")
	}
}

func TestStuckRIBGhostWithdrawAndResurrection(t *testing.T) {
	s := newTestSim(t, Config{})
	s.Faults().StickRIB(10, nil)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.RunAll()
	// 10 propagated the withdrawal but kept the route: everyone else is
	// clean, 10 is infected and invisible.
	if !s.HasRoute(10, beaconP) {
		t.Fatal("10 evicted the route despite StickRIB")
	}
	for _, asn := range []bgp.ASN{1, 2, 11, 12, 200, 300} {
		if s.HasRoute(asn, beaconP) {
			t.Fatalf("%s still has the route before the reset", asn)
		}
	}
	// A session reset between 10 and its provider 1 resurrects the route.
	s.ScheduleSessionReset(s.now.Add(time.Hour), 10, 1)
	s.RunAll()
	for _, asn := range []bgp.ASN{1, 2, 11, 12, 200, 300} {
		if !s.HasRoute(asn, beaconP) {
			t.Errorf("%s missing the resurrected route", asn)
		}
	}
	// Operator intervention clears it globally.
	s.ScheduleClearRoutes(s.now.Add(time.Hour), 10, nil)
	s.RunAll()
	if got := s.RouteCount(beaconP); got != 0 {
		t.Errorf("after clear: RouteCount = %d, want 0", got)
	}
}

type recordedEvent struct {
	at       time.Time
	sess     Session
	announce bool
	prefix   netip.Prefix
	attrs    RouteAttrs
	state    [2]mrt.SessionState
	isState  bool
}

type testSink struct {
	events []recordedEvent
}

func (ts *testSink) PeerAnnounce(at time.Time, sess Session, prefix netip.Prefix, attrs RouteAttrs) {
	ts.events = append(ts.events, recordedEvent{at: at, sess: sess, announce: true, prefix: prefix, attrs: attrs})
}

func (ts *testSink) PeerWithdraw(at time.Time, sess Session, prefix netip.Prefix) {
	ts.events = append(ts.events, recordedEvent{at: at, sess: sess, prefix: prefix})
}

func (ts *testSink) PeerState(at time.Time, sess Session, old, new mrt.SessionState) {
	ts.events = append(ts.events, recordedEvent{at: at, sess: sess, isState: true, state: [2]mrt.SessionState{old, new}})
}

func collectorSession() Session {
	return Session{
		Collector: "rrc25",
		PeerAS:    200,
		PeerIP:    netip.MustParseAddr("2001:db8:feed::1"),
		AFI:       bgp.AFIIPv6,
	}
}

func TestCollectorSinkSeesAnnounceAndWithdraw(t *testing.T) {
	s := newTestSim(t, Config{})
	sink := &testSink{}
	s.SetSink(sink)
	sess := collectorSession()
	if err := s.AddCollectorSession(sess); err != nil {
		t.Fatal(err)
	}
	agg := &bgp.Aggregator{ASN: originAS, Addr: netip.MustParseAddr("10.1.2.3")}
	s.EstablishCollectorSessions(simStart.Add(-time.Minute))
	s.ScheduleAnnounce(simStart, originAS, beaconP, agg)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.RunAll()
	var sawState, sawAnn, sawWd bool
	var annAttrs RouteAttrs
	for _, ev := range sink.events {
		switch {
		case ev.isState:
			sawState = true
			if ev.state[1] != mrt.StateEstablished {
				t.Errorf("state transition %v", ev.state)
			}
		case ev.announce:
			sawAnn = true
			annAttrs = ev.attrs
		default:
			if ev.prefix == beaconP {
				sawWd = true
			}
		}
	}
	if !sawState || !sawAnn || !sawWd {
		t.Fatalf("state/announce/withdraw = %v/%v/%v", sawState, sawAnn, sawWd)
	}
	// The exported path must start with the peer AS (200 prepends) and
	// carry the aggregator clock through.
	if annAttrs.Path.ASNs()[0] != 200 {
		t.Errorf("collector path %s does not start with the peer AS", annAttrs.Path)
	}
	if annAttrs.Aggregator == nil || annAttrs.Aggregator.Addr != agg.Addr {
		t.Errorf("aggregator not carried: %+v", annAttrs.Aggregator)
	}
}

func TestNoisyCollectorPeerDropsWithdrawals(t *testing.T) {
	s := newTestSim(t, Config{})
	sink := &testSink{}
	s.SetSink(sink)
	sessA := collectorSession()
	sessB := Session{Collector: "rrc25", PeerAS: 200, PeerIP: netip.MustParseAddr("176.119.234.201"), AFI: bgp.AFIIPv4}
	s.AddCollectorSession(sessA)
	s.AddCollectorSession(sessB)
	s.Faults().DropCollectorWithdrawals(200, 1.0, nil)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.RunAll()
	annBySess := make(map[netip.Addr]int)
	wd := 0
	for _, ev := range sink.events {
		if ev.isState {
			continue
		}
		if ev.announce {
			annBySess[ev.sess.PeerIP]++
		} else {
			wd++
		}
	}
	// Both sessions carry the same feed (possibly several announcements
	// during convergence), and the noisy peer loses every withdrawal.
	if len(annBySess) != 2 {
		t.Fatalf("announcements on %d sessions, want 2", len(annBySess))
	}
	if annBySess[sessA.PeerIP] != annBySess[sessB.PeerIP] || annBySess[sessA.PeerIP] == 0 {
		t.Errorf("per-session announcements diverge: %v", annBySess)
	}
	if wd != 0 {
		t.Errorf("withdrawals = %d, want 0 (noisy peer drops them)", wd)
	}
}

func TestCollectorSessionReset(t *testing.T) {
	s := newTestSim(t, Config{})
	sink := &testSink{}
	s.SetSink(sink)
	sess := collectorSession()
	s.AddCollectorSession(sess)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleCollectorSessionReset(simStart.Add(time.Hour), sess)
	s.RunAll()
	// Expect: announce, state down, state up, re-announce.
	var states []mrt.SessionState
	ann := 0
	for _, ev := range sink.events {
		if ev.isState {
			states = append(states, ev.state[1])
		} else if ev.announce {
			ann++
		}
	}
	if len(states) != 2 || states[0] != mrt.StateIdle || states[1] != mrt.StateEstablished {
		t.Errorf("state transitions %v", states)
	}
	if ann != 2 {
		t.Errorf("announcements = %d, want 2 (original + table replay)", ann)
	}
}

func TestROVEnforceEvictsAfterROARemoval(t *testing.T) {
	reg := &rpki.Registry{}
	base := netip.MustParsePrefix("2a0d:3dc1::/32")
	roa32 := rpki.ROA{Prefix: base, MaxLength: 32, Origin: originAS}
	roa48 := rpki.ROA{Prefix: base, MaxLength: 48, Origin: originAS}
	reg.Add(simStart.Add(-time.Hour), roa32)
	reg.Add(simStart.Add(-time.Hour), roa48)

	s := newTestSim(t, Config{ROA: reg})
	s.SetROVPolicy(11, rpki.ROVEnforce)
	// Wedge so 11 becomes a zombie holder.
	s.Faults().WedgeLink(1, 11, 0, simStart.Add(5*time.Minute), simStart.Add(240*time.Hour), nil)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.Run(simStart.Add(time.Hour))
	if !s.HasRoute(11, beaconP) {
		t.Fatal("no zombie to evict")
	}
	// Remove the /48 ROA: beacons become invalid under the /32 ROA.
	removeAt := simStart.Add(2 * time.Hour)
	reg.Remove(removeAt, roa48)
	s.ScheduleROARevalidation(removeAt)
	s.RunAll()
	if s.HasRoute(11, beaconP) {
		t.Error("ROV-enforcing AS kept an invalid zombie")
	}
	if s.HasRoute(200, beaconP) {
		t.Error("customer of enforcing AS kept the route")
	}
}

func TestROVNoEvictKeepsZombie(t *testing.T) {
	reg := &rpki.Registry{}
	base := netip.MustParsePrefix("2a0d:3dc1::/32")
	roa32 := rpki.ROA{Prefix: base, MaxLength: 32, Origin: originAS}
	roa48 := rpki.ROA{Prefix: base, MaxLength: 48, Origin: originAS}
	reg.Add(simStart.Add(-time.Hour), roa32)
	reg.Add(simStart.Add(-time.Hour), roa48)

	s := newTestSim(t, Config{ROA: reg})
	s.SetROVPolicy(11, rpki.ROVNoEvict)
	s.Faults().WedgeLink(1, 11, 0, simStart.Add(5*time.Minute), simStart.Add(240*time.Hour), nil)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.Run(simStart.Add(time.Hour))
	removeAt := simStart.Add(2 * time.Hour)
	reg.Remove(removeAt, roa48)
	s.ScheduleROARevalidation(removeAt)
	s.RunAll()
	if !s.HasRoute(11, beaconP) {
		t.Error("no-evict AS evicted the zombie; paper observes it must persist")
	}
}

func TestROVRejectsInvalidAtImport(t *testing.T) {
	reg := &rpki.Registry{}
	base := netip.MustParsePrefix("2a0d:3dc1::/32")
	reg.Add(simStart.Add(-time.Hour), rpki.ROA{Prefix: base, MaxLength: 32, Origin: originAS})
	// No /48 ROA: the beacon announcement is invalid from the start.
	s := newTestSim(t, Config{ROA: reg})
	s.SetROVPolicy(11, rpki.ROVEnforce)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.RunAll()
	if s.HasRoute(11, beaconP) {
		t.Error("ROV-enforcing AS imported an invalid route")
	}
	// Non-validating ASes still take it.
	if !s.HasRoute(12, beaconP) {
		t.Error("non-ROV AS rejected the route")
	}
	// 200 (customer of 11) cannot hear it from 11 but has no other
	// provider, so it must be routeless.
	if s.HasRoute(200, beaconP) {
		t.Error("200 heard an invalid route through its enforcing provider")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, bool) {
		s := newTestSim(t, Config{Seed: 99})
		s.Faults().DropWithdrawals(1, 11, 0.5, nil)
		s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
		s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
		s.RunAll()
		return s.Stats(), s.HasRoute(11, beaconP)
	}
	s1, z1 := run()
	s2, z2 := run()
	if s1 != s2 || z1 != z2 {
		t.Errorf("non-deterministic: %+v/%v vs %+v/%v", s1, z1, s2, z2)
	}
}

func TestPathHuntingLengthens(t *testing.T) {
	// During withdrawal convergence, ASes explore longer paths: the
	// collector should see an announce with a longer path before the
	// final withdrawal (path hunting), at least sometimes. Verify the
	// collector saw either a direct withdraw or an exploration announce,
	// and that the session converged to withdrawn.
	s := newTestSim(t, Config{})
	sink := &testSink{}
	s.SetSink(sink)
	sess := collectorSession()
	s.AddCollectorSession(sess)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.RunAll()
	if s.HasRoute(200, beaconP) {
		t.Fatal("did not converge")
	}
	if len(sink.events) == 0 {
		t.Fatal("collector saw nothing")
	}
	last := sink.events[len(sink.events)-1]
	if last.announce || last.isState {
		t.Errorf("last collector event is not a withdrawal: %+v", last)
	}
}

func TestScheduleErrors(t *testing.T) {
	s := newTestSim(t, Config{})
	if err := s.ScheduleAnnounce(simStart, 999, beaconP, nil); err == nil {
		t.Error("unknown origin accepted")
	}
	if err := s.ScheduleWithdraw(simStart, 999, beaconP); err == nil {
		t.Error("unknown origin accepted")
	}
	if err := s.ScheduleSessionReset(simStart, 1, 999); err == nil {
		t.Error("unknown AS in reset accepted")
	}
	if err := s.ScheduleClearRoutes(simStart, 999, nil); err == nil {
		t.Error("unknown AS in clear accepted")
	}
	if err := s.AddCollectorSession(Session{PeerAS: 999}); err == nil {
		t.Error("collector session from unknown AS accepted")
	}
}

func TestMatchWithin(t *testing.T) {
	m := MatchWithin(netip.MustParsePrefix("2a0d:3dc1::/32"))
	if !m(netip.MustParsePrefix("2a0d:3dc1:1851::/48")) {
		t.Error("contained /48 not matched")
	}
	if m(netip.MustParsePrefix("2001:db8::/48")) {
		t.Error("outside prefix matched")
	}
	if m(netip.MustParsePrefix("2a0d::/16")) {
		t.Error("covering prefix matched")
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	s := newTestSim(t, Config{})
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(time.Hour), originAS, beaconP)
	s.Run(simStart.Add(30 * time.Minute))
	if !s.HasRoute(200, beaconP) {
		t.Error("route missing mid-run")
	}
	s.RunAll()
	if s.HasRoute(200, beaconP) {
		t.Error("route still present after full run")
	}
}
