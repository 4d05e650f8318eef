package netsim

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"zombiescope/internal/bgp"
)

func TestSessionResetOnCleanNetworkIsTransparent(t *testing.T) {
	// Resetting a session while the route is healthy re-converges to the
	// same state.
	s := newTestSim(t, Config{})
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.Run(simStart.Add(time.Hour))
	before, _ := s.BestRoute(200, beaconP)
	s.ScheduleSessionReset(simStart.Add(2*time.Hour), 1, 11)
	s.RunAll()
	after, ok := s.BestRoute(200, beaconP)
	if !ok {
		t.Fatal("route lost after reset")
	}
	if !after.Equal(before) {
		t.Errorf("path changed across a clean reset: %s -> %s", before, after)
	}
	if got := s.RouteCount(beaconP); got != 8 {
		t.Errorf("RouteCount after reset = %d", got)
	}
}

func TestMultiplePrefixesIndependent(t *testing.T) {
	// A wedge scoped to one prefix must not affect another.
	s := newTestSim(t, Config{})
	other := netip.MustParsePrefix("2a0d:3dc1:1300::/48")
	match := func(p netip.Prefix) bool { return p == beaconP }
	s.Faults().WedgeLink(1, 11, 0, simStart.Add(5*time.Minute), simStart.Add(24*time.Hour), match)
	for _, p := range []netip.Prefix{beaconP, other} {
		s.ScheduleAnnounce(simStart, originAS, p, nil)
		s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, p)
	}
	s.RunAll()
	if !s.HasRoute(11, beaconP) {
		t.Error("wedged prefix not stuck")
	}
	if s.HasRoute(11, other) {
		t.Error("unwedged prefix stuck")
	}
}

func TestAggregatorCarriedThroughPropagation(t *testing.T) {
	s := newTestSim(t, Config{})
	sink := &testSink{}
	s.SetSink(sink)
	s.AddCollectorSession(collectorSession())
	agg := &bgp.Aggregator{ASN: originAS, Addr: netip.MustParseAddr("10.11.22.33")}
	s.ScheduleAnnounce(simStart, originAS, beaconP, agg)
	s.RunAll()
	for _, ev := range sink.events {
		if ev.announce && (ev.attrs.Aggregator == nil || ev.attrs.Aggregator.Addr != agg.Addr) {
			t.Errorf("aggregator lost en route to collector: %+v", ev.attrs.Aggregator)
		}
	}
}

func TestNewAnnouncementReplacesStaleRoute(t *testing.T) {
	// A zombie from interval 1 is replaced by interval 2's announcement
	// (fresh Aggregator), and interval 2's withdrawal — delivered, since
	// the drop applies only to interval 1 — cleans up.
	s := newTestSim(t, Config{})
	agg1 := &bgp.Aggregator{ASN: originAS, Addr: netip.MustParseAddr("10.0.0.1")}
	agg2 := &bgp.Aggregator{ASN: originAS, Addr: netip.MustParseAddr("10.0.0.2")}
	wd1 := simStart.Add(15 * time.Minute)
	// Drop only interval 1's withdrawals on 1->11.
	s.Faults().DropWithdrawalsDuring(1, 11, 1.0, nil, wd1, wd1.Add(10*time.Minute))
	s.ScheduleAnnounce(simStart, originAS, beaconP, agg1)
	s.ScheduleWithdraw(wd1, originAS, beaconP)
	s.Run(simStart.Add(2 * time.Hour))
	if !s.HasRoute(11, beaconP) {
		t.Fatal("no zombie after interval 1")
	}
	start2 := simStart.Add(4 * time.Hour)
	s.ScheduleAnnounce(start2, originAS, beaconP, agg2)
	s.ScheduleWithdraw(start2.Add(15*time.Minute), originAS, beaconP)
	s.RunAll()
	if s.HasRoute(11, beaconP) {
		t.Error("interval 2's withdrawal did not clean the route")
	}
}

func TestPerLinkFIFOOrdering(t *testing.T) {
	// Rapid announce/withdraw pairs must arrive in order on every
	// session: final state is withdrawn everywhere.
	s := newTestSim(t, Config{})
	for i := 0; i < 20; i++ {
		at := simStart.Add(time.Duration(i) * time.Second)
		s.ScheduleAnnounce(at, originAS, beaconP, nil)
		s.ScheduleWithdraw(at.Add(500*time.Millisecond), originAS, beaconP)
	}
	s.RunAll()
	if got := s.RouteCount(beaconP); got != 0 {
		t.Errorf("RouteCount = %d after final withdrawal", got)
	}
}

func TestLinkDelayDeterministicPerLink(t *testing.T) {
	s := newTestSim(t, Config{Seed: 3})
	d1 := s.cfg.linkDelay(1, 11)
	d2 := s.cfg.linkDelay(1, 11)
	if d1 != d2 {
		t.Error("link delay not stable")
	}
	if s.cfg.linkDelay(1, 11) == s.cfg.linkDelay(11, 1) && s.cfg.linkDelay(1, 11) == s.cfg.linkDelay(1, 12) {
		t.Error("suspiciously identical delays across links")
	}
	if d1 < minLinkDelay || d1 >= maxLinkDelay {
		t.Errorf("delay %v outside [%v, %v)", d1, minLinkDelay, maxLinkDelay)
	}
}

func TestStatsCountMessages(t *testing.T) {
	s := newTestSim(t, Config{})
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.RunAll()
	st := s.Stats()
	if st.MessagesSent == 0 || st.Events == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	if st.MessagesDropped != 0 {
		t.Errorf("drops without faults: %d", st.MessagesDropped)
	}
}

func TestGhostWithdrawSendsCollectorWithdraw(t *testing.T) {
	// A stuck-RIB peer that is itself a collector peer must tell the
	// collector the route is gone (it propagates the withdrawal), even
	// though it keeps the route internally.
	s := newTestSim(t, Config{})
	sink := &testSink{}
	s.SetSink(sink)
	sess := Session{Collector: "rrc25", PeerAS: 11, PeerIP: netip.MustParseAddr("2001:db8:11::1"), AFI: bgp.AFIIPv6}
	s.AddCollectorSession(sess)
	s.Faults().StickRIB(11, nil)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.RunAll()
	if !s.HasRoute(11, beaconP) {
		t.Fatal("route not stuck at 11")
	}
	sawWithdraw := false
	for _, ev := range sink.events {
		if !ev.isState && !ev.announce && ev.prefix == beaconP {
			sawWithdraw = true
		}
	}
	if !sawWithdraw {
		t.Error("collector never saw the ghost withdrawal")
	}
}

func TestReadvertiseRespectsExportPolicy(t *testing.T) {
	// After a reset between two Tier-1 peers, a peer-learned route must
	// NOT be re-advertised across the peering (valley-free).
	s := newTestSim(t, Config{})
	p := netip.MustParsePrefix("2001:db8:200::/48")
	s.ScheduleAnnounce(simStart, 200, p, nil) // 200 is customer of 11 only
	s.Run(simStart.Add(time.Hour))
	// 1 learned it from customer 11; 2 learned it from customer 11 too.
	// Reset the 1-2 peering: neither should hand the other a route it
	// would not normally export... both DO export customer routes, so the
	// route must survive and stay valley-free.
	s.ScheduleSessionReset(simStart.Add(2*time.Hour), 1, 2)
	s.RunAll()
	path1, ok := s.BestRoute(1, p)
	if !ok {
		t.Fatal("1 lost the route")
	}
	// 1's best must still be via its customer 11, not via peer 2.
	if path1.ASNs()[0] != 11 {
		t.Errorf("1's best via %v after reset, want 11", path1.ASNs()[0])
	}
}

func TestClearRoutesPropagatesWithdrawals(t *testing.T) {
	s := newTestSim(t, Config{})
	s.Faults().DropWithdrawals(1, 11, 1.0, nil)
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.ScheduleWithdraw(simStart.Add(15*time.Minute), originAS, beaconP)
	s.Run(simStart.Add(2 * time.Hour))
	if !s.HasRoute(200, beaconP) {
		t.Fatal("no zombie at 200")
	}
	s.ScheduleClearRoutes(simStart.Add(3*time.Hour), 11, nil)
	s.RunAll()
	if s.HasRoute(200, beaconP) {
		t.Error("clearing 11 did not withdraw at its customer 200")
	}
	if s.HasRoute(11, beaconP) {
		t.Error("11 still has the route after clear")
	}
}

func TestSessionResetRejectsNonAdjacentASes(t *testing.T) {
	// 100 and 200 share no link: a reset between them must be refused,
	// not fabricate a session that hands 200 a direct route to 100.
	s := newTestSim(t, Config{})
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.Run(simStart.Add(time.Hour))
	if err := s.ScheduleSessionReset(simStart.Add(2*time.Hour), originAS, 200); err == nil {
		t.Error("reset of non-adjacent ASes accepted")
	}
	sh := NewSharded(testGraph(t), Config{Seed: 1}, 2)
	if err := sh.ScheduleSessionReset(simStart, originAS, 200); err == nil {
		t.Error("sharded reset of non-adjacent ASes accepted")
	}
	s.RunAll()
	if path, ok := s.BestRoute(200, beaconP); !ok || path.String() != "11 1 10 100" {
		t.Errorf("200's best path = %s, %v; want 11 1 10 100", path, ok)
	}
}

// linkOf returns asn's link index toward n, failing the test when there
// is none.
func linkOf(t *testing.T, s *Simulator, asn, n bgp.ASN) int {
	t.Helper()
	i := linkIndex(s.routers[asn].links, n)
	if i < 0 {
		t.Fatalf("%s has no link to %s", asn, n)
	}
	return i
}

func TestDeliveryFIFOIsPerAddressFamily(t *testing.T) {
	s := newTestSim(t, Config{})
	s.now = simStart
	r := s.routers[1]
	i := linkOf(t, s, 1, 2)
	v4 := netip.MustParsePrefix("84.205.64.0/24")
	due := simStart.Add(r.links[i].delay)
	// A v6 and a v4 message sent back to back share the link but not a
	// FIFO: both land after the plain link delay.
	if got := r.deliverAt(i, beaconP); !got.Equal(due) {
		t.Errorf("first v6 delivery at %v, want %v", got, due)
	}
	if got := r.deliverAt(i, v4); !got.Equal(due) {
		t.Errorf("v4 delivery behind a v6 one at %v, want %v", got, due)
	}
	// A second message of each family collides with the first and is
	// spaced 1ms behind it.
	if got := r.deliverAt(i, beaconP); !got.Equal(due.Add(time.Millisecond)) {
		t.Errorf("second v6 delivery at %v, want %v", got, due.Add(time.Millisecond))
	}
	if got := r.deliverAt(i, v4); !got.Equal(due.Add(time.Millisecond)) {
		t.Errorf("second v4 delivery at %v, want %v", got, due.Add(time.Millisecond))
	}
	// The reverse direction is a link of its own.
	if got := s.routers[2].deliverAt(linkOf(t, s, 2, 1), beaconP); !got.Equal(simStart.Add(s.cfg.linkDelay(2, 1))) {
		t.Errorf("reverse-link delivery at %v, want the plain delay", got)
	}
}

// customerPrefix is originated by AS200. AS1 learns it from customer 11
// and from peer 2, prefers the customer route, and exports it to 2 and 10.
var customerPrefix = netip.MustParsePrefix("2001:db8:200::/48")

func TestFlushFromClearsOnlyThatNeighbor(t *testing.T) {
	s := newTestSim(t, Config{})
	s.ScheduleAnnounce(simStart, 200, customerPrefix, nil)
	s.Run(simStart.Add(time.Hour))
	r := s.routers[1]
	at2, from11, to10 := linkOf(t, s, 1, 2), linkOf(t, s, 1, 11), linkOf(t, s, 1, 10)
	e := r.rib[customerPrefix]
	if e.in[at2] == 0 || e.in[from11] == 0 || !e.out[at2].sent() || !e.out[to10].sent() {
		t.Fatalf("unexpected converged state at AS1: in %v, out %v", e.in, e.out)
	}
	best := *r.at(e.best)
	r.flushFrom(at2)
	if e.in[at2] != 0 || e.out[at2].sent() {
		t.Error("flushFrom left AS2's slots set")
	}
	if e.in[from11] == 0 || !e.out[to10].sent() || e.nin != 1 {
		t.Errorf("flushFrom touched other neighbors' slots: in %v, out %v, nin %d", e.in, e.out, e.nin)
	}
	if e.best != e.in[from11] || !routesEqual(r.at(e.best), &best) {
		t.Error("best route changed although it was not learned from AS2")
	}
}

func TestReadvertiseAfterFlushSendsInPrefixOrder(t *testing.T) {
	// After a reset of 2–12, AS12 relearns its whole table from 2 and
	// passes it on to its collector: the announcements must come in
	// canonical prefix order, whatever order they were originated in.
	s := newTestSim(t, Config{})
	sink := &testSink{}
	s.SetSink(sink)
	s.AddCollectorSession(Session{Collector: "rrc00", PeerAS: 12, PeerIP: netip.MustParseAddr("2001:db8::12"), AFI: bgp.AFIIPv6})
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("2a0d:3dc1:1300::/48"),
		netip.MustParsePrefix("93.175.149.0/24"),
		beaconP,
		netip.MustParsePrefix("84.205.64.0/24"),
		netip.MustParsePrefix("2001:db8:77::/48"),
	}
	for _, p := range prefixes {
		s.ScheduleAnnounce(simStart, originAS, p, nil)
	}
	s.Run(simStart.Add(time.Hour))
	resetAt := simStart.Add(2 * time.Hour)
	if err := s.ScheduleSessionReset(resetAt, 2, 12); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	// Each address family has its own FIFO, so the families interleave;
	// within one, arrival order is send order.
	var got, want [2][]netip.Prefix
	for _, ev := range sink.events {
		if ev.announce && ev.at.After(resetAt.Add(time.Second)) {
			af := bgp.PrefixAFI(ev.prefix) - 1
			got[af] = append(got[af], ev.prefix)
		}
	}
	slices.SortFunc(prefixes, comparePrefix)
	for _, p := range prefixes {
		af := bgp.PrefixAFI(p) - 1
		want[af] = append(want[af], p)
	}
	if !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) {
		t.Errorf("re-advertised in order %v, want %v", got, want)
	}
}

func TestMRAIFlushOfStaleDecisionSendsNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		slot  func(e exported) exported // the out slot when the timer fires
		sends uint64
	}{
		{"still current", func(e exported) exported { return e }, 1},
		{"withdrawn", func(exported) exported { return exported{} }, 0},
		{"changed", func(exported) exported { return exported{path: bgp.NewASPath(1, 11, 200)} }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSim(t, Config{MRAI: MRAIConfig{Interval: 30 * time.Second}})
			r := s.routers[1]
			i := linkOf(t, s, 1, 2)
			e := r.entry(beaconP)
			e.out = make([]exported, len(r.links))
			s.now = simStart
			first := exported{path: bgp.NewASPath(1, 10, 100)}
			e.out[i] = first
			r.sendAnnounceMRAI(i, beaconP, first)
			s.now = simStart.Add(time.Second)
			pending := exported{path: bgp.NewASPath(1, 11, 100)}
			e.out[i] = pending
			r.sendAnnounceMRAI(i, beaconP, pending)
			if s.stats.MessagesSent != 1 {
				t.Fatalf("MessagesSent = %d before the flush, want 1", s.stats.MessagesSent)
			}
			e.out[i] = tc.slot(pending)
			s.now = simStart.Add(30 * time.Second)
			r.flushMRAI(mraiKey{to: i, p: beaconP})
			if got := s.stats.MessagesSent - 1; got != tc.sends {
				t.Errorf("flush sent %d messages, want %d", got, tc.sends)
			}
		})
	}
}

func TestLoopDetectedAnnouncementRemovesSendersRoute(t *testing.T) {
	s := newTestSim(t, Config{})
	s.ScheduleAnnounce(simStart, 200, customerPrefix, nil)
	s.Run(simStart.Add(time.Hour))
	r := s.routers[1]
	from2, from11 := linkOf(t, s, 1, 2), linkOf(t, s, 1, 11)
	e := r.rib[customerPrefix]
	best := *r.at(e.best)
	s.now = simStart.Add(time.Hour)
	r.receiveAnnounce(from2, customerPrefix, bgp.NewASPath(2, 1, 11, 200), nil)
	if e.in[from2] != 0 {
		t.Error("loop-detected announcement kept AS2's route")
	}
	if e.in[from11] == 0 || e.nin != 1 || e.best != e.in[from11] || !routesEqual(r.at(e.best), &best) {
		t.Error("loop-detected announcement from AS2 disturbed the other routes")
	}
}

// TestReannounceOverBestLinkIsExported replaces the best route with a
// different path of the same length over the same link, and withdraws
// and re-announces it there. Each change must reach the neighbors and the
// collector: a route store that hands a replaced route's slot straight
// back must not make the new best look like the old one.
func TestReannounceOverBestLinkIsExported(t *testing.T) {
	s := newTestSim(t, Config{})
	sink := &testSink{}
	s.SetSink(sink)
	if err := s.AddCollectorSession(Session{Collector: "rrc00", PeerAS: 11, PeerIP: netip.MustParseAddr("2001:db8::11"), AFI: bgp.AFIIPv6}); err != nil {
		t.Fatal(err)
	}
	s.ScheduleAnnounce(simStart, originAS, beaconP, nil)
	s.Run(simStart.Add(time.Hour))
	// AS11 prefers its provider 1 ("1 10 100") over provider 2.
	r := s.routers[11]
	from1 := linkOf(t, s, 11, 1)
	if r.rib[beaconP].best != r.rib[beaconP].in[from1] {
		t.Fatal("AS11's best route is not the one learned from AS1")
	}
	expect := func(step, want200, wantColl string) {
		t.Helper()
		s.RunAll()
		if got, ok := s.BestRoute(200, beaconP); !ok || got.String() != want200 {
			t.Errorf("%s: AS200's best path = %s, %v; want %s", step, got, ok, want200)
		}
		var last string
		for _, ev := range sink.events {
			if ev.announce && ev.prefix == beaconP {
				last = ev.attrs.Path.String()
			}
		}
		if last != wantColl {
			t.Errorf("%s: collector last saw %q, want %q", step, last, wantColl)
		}
	}
	s.now = simStart.Add(time.Hour)
	r.receiveAnnounce(from1, beaconP, bgp.NewASPath(1, 12, 100), nil)
	expect("re-announce", "11 1 12 100", "11 1 12 100")

	s.now = simStart.Add(2 * time.Hour)
	r.receiveWithdraw(from1, beaconP)
	expect("withdraw", "11 2 1 10 100", "11 2 1 10 100")

	s.now = simStart.Add(3 * time.Hour)
	r.receiveAnnounce(from1, beaconP, bgp.NewASPath(1, 10, 100), nil)
	expect("withdraw then re-announce", "11 1 10 100", "11 1 10 100")
	r.receiveAnnounce(from1, beaconP, bgp.NewASPath(1, 12, 100), nil)
	expect("re-announce after withdraw", "11 1 12 100", "11 1 12 100")
}
