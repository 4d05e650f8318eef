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
	"zombiescope/internal/rpki"
	"zombiescope/internal/topology"
)

// The paper's named actors.
const (
	AuthorOriginAS bgp.ASN = 210312 // the authors' personal AS
	AS8298         bgp.ASN = 8298   // first upstream
	AS25091        bgp.ASN = 25091  // second upstream
	AS1299         bgp.ASN = 1299   // Arelion (Tier-1)
	AS3356         bgp.ASN = 3356   // Lumen (Tier-1)
	AS6939         bgp.ASN = 6939   // Hurricane Electric (Tier-1)
	AS12956        bgp.ASN = 12956  // Telxius (Tier-1)
	AS174          bgp.ASN = 174    // Cogent (Tier-1)
	AS4637         bgp.ASN = 4637   // Telstra Global — resurrection bump culprit
	AS33891        bgp.ASN = 33891  // Core-Backbone — impactful outbreak culprit
	AS9304         bgp.ASN = 9304   // HGC — extremely long-lived outbreak culprit
	AS43100        bgp.ASN = 43100
	AS34549        bgp.ASN = 34549
	AS10429        bgp.ASN = 10429
	AS28598        bgp.ASN = 28598
	AS61573        bgp.ASN = 61573 // RIS peer seeing the resurrected 1851 prefix
	AS17639        bgp.ASN = 17639 // RIS peer stuck with the HGC zombie
	AS142271       bgp.ASN = 142271
	AS207301       bgp.ASN = 207301 // RIS peer behind noisy AS211509
	AS211380       bgp.ASN = 211380 // noisy peer (Simulhost)
	AS211509       bgp.ASN = 211509 // noisy peer (Rudakov Ihor), two router addresses
)

// AuthorBase is the authors' covering prefix 2a0d:3dc1::/32.
var AuthorBase = netip.MustParsePrefix("2a0d:3dc1::/32")

// AuthorConfig parameterizes the §4/§5 beacon experiment.
type AuthorConfig struct {
	Seed       uint64
	SlotStride int // 1 = the paper's 96/day; larger thins the schedule

	// Approach1Start is the first 24h-recycle announcement, Approach2End
	// the last 15d-recycle withdrawal, and TrackUntil the end of the RIB
	// dump tracking (the paper's 2025-05-09).
	Approach1Start, Approach2End time.Time
	TrackUntil                   time.Time
}

// The rest of the paper's timeline (§4): the 24h-recycle approach ends
// 2024-06-10 09:30, the 15d-recycle one starts two hours later, and the
// beacons' maxlen-48 ROA is removed 2024-06-22 19:49.
var (
	approach1End   = time.Date(2024, 6, 10, 9, 30, 0, 0, time.UTC)
	approach2Start = time.Date(2024, 6, 10, 11, 30, 0, 0, time.UTC)
	roaRemoveAt    = time.Date(2024, 6, 22, 19, 49, 0, 0, time.UTC)
)

// The scenario's calibration against Tables 1–5 and Figs. 2–3.
const (
	// dumpEvery is RIS's RIB dump cadence (8-hourly), the one lifespan
	// tracking assumes.
	dumpEvery = 8 * time.Hour

	// Noisy collector peers (Table 5): the probability that each drops a
	// withdrawal toward the collector.
	noisy211509Prob = 0.099
	noisy211380Prob = 0.070

	// transientWedgeProb is the per-announcement probability of a slow-
	// convergence wedge on a random peer's upstream (zombies that clear
	// between 1.5h and ~3.5h — the Fig. 2 decay).
	transientWedgeProb = 0.105
	// organicLongWedges is how many multi-day organic zombies to inject
	// (the lower tail of Fig. 3).
	organicLongWedges = 3
	// genericPeers is how many generic RIS peer ASes add path diversity.
	genericPeers = 8

	// noisySessionResetEvery is the mean interval between the noisy
	// peers' collector session flaps. Real RIS sessions flap now and
	// then; without this, a dropped withdrawal would freeze the
	// collector's view of the peer until the end of time.
	noisySessionResetEvery = 21 * 24 * time.Hour
)

// DefaultAuthorConfig mirrors the paper's timeline; scale thins the
// 15-minute slot grid (scale=1 → 96 prefixes/day as deployed).
func DefaultAuthorConfig(seed uint64, scale int) AuthorConfig {
	if scale <= 0 {
		scale = 8
	}
	return AuthorConfig{
		Seed:           seed,
		SlotStride:     scale,
		Approach1Start: time.Date(2024, 6, 4, 11, 45, 0, 0, time.UTC),
		Approach2End:   time.Date(2024, 6, 22, 17, 30, 0, 0, time.UTC),
		TrackUntil:     time.Date(2025, 5, 9, 0, 0, 0, 0, time.UTC),
	}
}

// ScriptedCase is a scenario-scripted zombie for the case-study drivers,
// which look it up by name in AuthorData.Cases.
type ScriptedCase struct {
	Prefix     netip.Prefix
	AnnounceAt time.Time
	WithdrawAt time.Time
}

// AuthorData is the archive and metadata of the author-beacon scenario.
type AuthorData struct {
	Updates map[string][]byte
	Dumps   map[string][]byte

	Intervals     []beacon.Interval
	Announcements int

	NoisyPeerAS   map[bgp.ASN]bool
	NoisyPeerAddr map[netip.Addr]bool

	Graph *topology.Graph

	// Cases: "impactful", "hgc", "resurrection", "cluster0".."clusterN",
	// "telstra0".."telstraN", "organic85".
	Cases map[string]ScriptedCase

	Config AuthorConfig
}

// buildAuthorGraph wires the named actors so that the paper's quoted AS
// paths fall out of the decision process.
func buildAuthorGraph() (*topology.Graph, []bgp.ASN, error) {
	g := topology.New()
	g.AddAS(AS1299, 1)
	g.AddAS(AS3356, 1)
	g.AddAS(AS6939, 1)
	g.AddAS(AS12956, 1)
	g.AddAS(AS174, 1)
	g.AddAS(AS4637, 2)
	g.AddAS(AS33891, 2)
	g.AddAS(AS9304, 2)
	g.AddAS(AS43100, 2)
	g.AddAS(AS34549, 2)
	g.AddAS(AS10429, 2)
	g.AddAS(AS28598, 3)
	g.AddAS(AS25091, 2)
	g.AddAS(AS8298, 3)
	g.AddAS(AuthorOriginAS, 4)
	g.AddAS(AS61573, 4)
	g.AddAS(AS17639, 4)
	g.AddAS(AS142271, 4)
	g.AddAS(AS207301, 4)
	g.AddAS(AS211380, 4)
	g.AddAS(AS211509, 3)

	type link struct {
		kind string
		a, b bgp.ASN
	}
	links := []link{
		// Tier-1 partial mesh: 12956 peers only with 3356, 6939 and 174,
		// steering its best path through 3356/34549 as the paper's quoted
		// route shows.
		{"p", AS1299, AS3356}, {"p", AS1299, AS6939}, {"p", AS1299, AS174},
		{"p", AS3356, AS6939}, {"p", AS3356, AS174}, {"p", AS6939, AS174},
		{"p", AS12956, AS3356}, {"p", AS12956, AS6939}, {"p", AS12956, AS174},
		// The beacon chain: 210312 ← 8298 ← {25091, 34549}.
		{"c", AuthorOriginAS, AS8298},
		{"c", AS8298, AS25091},
		{"c", AS8298, AS34549},
		{"c", AS25091, AS1299},
		{"c", AS25091, AS43100},
		{"c", AS43100, AS6939},
		{"c", AS34549, AS3356},
		// The culprits.
		{"c", AS4637, AS1299},
		{"c", AS33891, AS25091},
		{"c", AS9304, AS6939},
		{"c", AS10429, AS12956},
		{"c", AS28598, AS10429},
		{"c", AS61573, AS28598},
		{"c", AS17639, AS9304},
		{"c", AS142271, AS9304},
		{"c", AS211509, AS3356},
		{"c", AS207301, AS211509},
		{"c", AS211380, AS3356},
	}
	var peers []bgp.ASN
	// 21 RIS peer ASes in Core-Backbone's customer cone (the impactful
	// outbreak audience).
	for i := 0; i < 21; i++ {
		asn := bgp.ASN(65000 + i)
		g.AddAS(asn, 4)
		links = append(links, link{"c", asn, AS33891})
		peers = append(peers, asn)
	}
	// 6 RIS peer ASes under Telstra (the resurrection-bump audience).
	for i := 0; i < 6; i++ {
		asn := bgp.ASN(65100 + i)
		g.AddAS(asn, 4)
		links = append(links, link{"c", asn, AS4637})
		peers = append(peers, asn)
	}
	// Generic RIS peers for diversity.
	generic := []bgp.ASN{AS1299, AS6939, AS34549, AS43100, AS10429, AS3356, AS12956, AS174}
	for i := 0; i < genericPeers; i++ {
		asn := bgp.ASN(65200 + i)
		g.AddAS(asn, 4)
		links = append(links, link{"c", asn, generic[i%len(generic)]})
		peers = append(peers, asn)
	}
	peers = append(peers, AS61573, AS17639, AS142271, AS207301, AS211380, AS211509, AS9304)
	for _, l := range links {
		var err error
		if l.kind == "c" {
			err = g.AddC2P(l.a, l.b)
		} else {
			err = g.AddP2P(l.a, l.b)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, peers, nil
}

func v6PeerAddr(asn bgp.ASN, idx int) netip.Addr {
	a := [16]byte{0x2a, 0x0c, 0x9a, 0x40}
	a[4] = byte(idx)
	a[5] = byte(asn >> 16)
	a[6] = byte(asn >> 8)
	a[7] = byte(asn)
	a[15] = 1
	return netip.AddrFrom16(a)
}

// RunAuthorScenario simulates the authors' beacon deployment and its
// aftermath: both recycle approaches, the scripted case studies, the ROA
// removal, and nearly a year of 8-hourly RIB dumps.
func RunAuthorScenario(cfg AuthorConfig) (*AuthorData, error) {
	g, peers, err := buildAuthorGraph()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xa07402))

	// RPKI: the /32 is ROA'd at its own length; the beacon /48s have a
	// dedicated maxlen-48 ROA that is removed on 2024-06-22 19:49.
	reg := &rpki.Registry{}
	roa32 := rpki.ROA{Prefix: AuthorBase, MaxLength: 32, Origin: AuthorOriginAS}
	roa48 := rpki.ROA{Prefix: AuthorBase, MaxLength: 48, Origin: AuthorOriginAS}
	epoch := cfg.Approach1Start.Add(-24 * time.Hour)
	reg.Add(epoch, roa32)
	reg.Add(epoch, roa48)
	reg.Remove(roaRemoveAt, roa48)

	sim := netsim.New(g, netsim.Config{Seed: cfg.Seed, ROA: reg})
	fleet := collector.NewFleet()
	sim.SetSink(fleet)

	// ROV adoption: a few transits enforce properly; AS9304 has the
	// flawed no-evict implementation the paper observes (its zombie
	// survives the ROA removal); the scripted zombie holders do not
	// validate at all.
	sim.SetROVPolicy(AS174, rpki.ROVEnforce)
	sim.SetROVPolicy(AS34549, rpki.ROVEnforce)
	sim.SetROVPolicy(AS9304, rpki.ROVNoEvict)
	sim.SetROVPolicy(AS211380, rpki.ROVNoEvict)

	// Collector sessions.
	noisyAddr211509v6 := netip.MustParseAddr("2001:678:3f4:5::1")
	noisyAddr211509v4 := netip.MustParseAddr("176.119.234.201")
	noisyAddr211380 := netip.MustParseAddr("2a0c:9a40:1031::504")
	peer207301 := netip.MustParseAddr("2a0c:b641:780:7::feca")
	sessions := []netsim.Session{
		{Collector: "rrc25", PeerAS: AS211509, PeerIP: noisyAddr211509v6, AFI: bgp.AFIIPv6},
		{Collector: "rrc25", PeerAS: AS211509, PeerIP: noisyAddr211509v4, AFI: bgp.AFIIPv4},
		{Collector: "rrc25", PeerAS: AS211380, PeerIP: noisyAddr211380, AFI: bgp.AFIIPv6},
		{Collector: "rrc25", PeerAS: AS207301, PeerIP: peer207301, AFI: bgp.AFIIPv6},
	}
	for i, asn := range peers {
		switch asn {
		case AS211380, AS211509, AS207301:
			continue
		}
		coll := "rrc03"
		if asn >= 65000 && asn < 65100 {
			coll = "rrc00"
		} else if asn >= 65100 && asn < 65200 {
			coll = "rrc01"
		}
		sessions = append(sessions, netsim.Session{Collector: coll, PeerAS: asn, PeerIP: v6PeerAddr(asn, i), AFI: bgp.AFIIPv6})
		// Three Core-Backbone customers expose a second router address,
		// giving the paper's 24 peer routers across 21 peer ASes.
		if asn >= 65000 && asn < 65003 {
			sessions = append(sessions, netsim.Session{Collector: coll, PeerAS: asn, PeerIP: v6PeerAddr(asn, i+100), AFI: bgp.AFIIPv6})
		}
	}
	for _, s := range sessions {
		if err := sim.AddCollectorSession(s); err != nil {
			return nil, err
		}
	}

	// Beacon schedules.
	sched1 := &beacon.AuthorSchedule{Base: AuthorBase, OriginAS: AuthorOriginAS, Approach: beacon.Recycle24h, SlotStride: cfg.SlotStride}
	sched2 := &beacon.AuthorSchedule{Base: AuthorBase, OriginAS: AuthorOriginAS, Approach: beacon.Recycle15d, SlotStride: cfg.SlotStride}
	events := append(sched1.Events(cfg.Approach1Start, approach1End),
		sched2.Events(approach2Start, cfg.Approach2End)...)
	intervals := append(sched1.Intervals(cfg.Approach1Start, approach1End),
		sched2.Intervals(approach2Start, cfg.Approach2End)...)
	if err := ScheduleBeacons(sim, AuthorOriginAS, events); err != nil {
		return nil, err
	}
	announcements := 0
	for _, ev := range events {
		if ev.Announce {
			announcements++
		}
	}

	// slotAt finds the announcement event at or after t (the scripted
	// cases snap to the thinned slot grid).
	slotAt := func(t time.Time) (beacon.Event, bool) {
		var best beacon.Event
		found := false
		for _, ev := range events {
			if !ev.Announce || ev.At.Before(t) {
				continue
			}
			if !found || ev.At.Before(best.At) {
				best = ev
				found = true
			}
		}
		return best, found
	}
	cases := make(map[string]ScriptedCase)
	faults := sim.Faults()
	matchOne := func(p netip.Prefix) netsim.PrefixMatcher {
		return func(q netip.Prefix) bool { return q == p }
	}
	scripted := make(map[netip.Prefix]bool)
	addCase := func(name string, ev beacon.Event) ScriptedCase {
		c := ScriptedCase{Prefix: ev.Prefix, AnnounceAt: ev.At, WithdrawAt: ev.At.Add(beacon.SlotDuration)}
		cases[name] = c
		scripted[ev.Prefix] = true
		return c
	}

	// Case 1 — impactful outbreak (paper: 2a0d:3dc1:2233::/48, stuck in
	// 24 peer routers / 21 peer ASes behind AS33891 for 4 days).
	if ev, ok := slotAt(time.Date(2024, 6, 18, 22, 30, 0, 0, time.UTC)); ok {
		c := addCase("impactful", ev)
		wedgeEnd := c.WithdrawAt.Add(4 * 24 * time.Hour)
		faults.WedgeLink(AS25091, AS33891, bgp.AFIIPv6, c.WithdrawAt.Add(-5*time.Minute), wedgeEnd, matchOne(c.Prefix))
		if err := sim.ScheduleSessionReset(wedgeEnd, AS25091, AS33891); err != nil {
			return nil, err
		}
	}

	// Case 2 — extremely long-lived outbreak (paper: 2a0d:3dc1:163::/48,
	// stuck at AS9304/AS17639 until 2024-11-03 and AS142271 until
	// 2024-10-25, behind HGC).
	if ev, ok := slotAt(time.Date(2024, 6, 18, 16, 0, 0, 0, time.UTC)); ok {
		c := addCase("hgc", ev)
		end := time.Date(2024, 11, 3, 12, 0, 0, 0, time.UTC)
		faults.WedgeLink(AS6939, AS9304, bgp.AFIIPv6, c.WithdrawAt.Add(-5*time.Minute), end, matchOne(c.Prefix))
		if err := sim.ScheduleClearRoutes(time.Date(2024, 10, 25, 6, 0, 0, 0, time.UTC), AS142271, matchOne(c.Prefix)); err != nil {
			return nil, err
		}
		if err := sim.ScheduleSessionReset(end, AS6939, AS9304); err != nil {
			return nil, err
		}
	}

	// Case 3 — the resurrected zombie (paper: 2a0d:3dc1:1851::/48 —
	// withdrawn everywhere 2024-06-21, reappears at AS61573's RIB via a
	// stuck AS10429 on 06-29, gone 10-04, back 11-29, finally cleared
	// 2025-03-11: ~8.5 months total).
	if ev, ok := slotAt(time.Date(2024, 6, 21, 18, 45, 0, 0, time.UTC)); ok {
		c := addCase("resurrection", ev)
		faults.StickRIB(AS10429, matchOne(c.Prefix))
		if err := sim.ScheduleSessionReset(time.Date(2024, 6, 29, 9, 0, 0, 0, time.UTC), AS10429, AS28598); err != nil {
			return nil, err
		}
		if err := sim.ScheduleClearRoutes(time.Date(2024, 10, 4, 3, 0, 0, 0, time.UTC), AS28598, matchOne(c.Prefix)); err != nil {
			return nil, err
		}
		if err := sim.ScheduleSessionReset(time.Date(2024, 11, 29, 15, 0, 0, 0, time.UTC), AS10429, AS28598); err != nil {
			return nil, err
		}
		if err := sim.ScheduleClearRoutes(time.Date(2025, 3, 11, 9, 0, 0, 0, time.UTC), AS10429, matchOne(c.Prefix)); err != nil {
			return nil, err
		}
	}

	// Case 4 — the Fig. 2 resurrection bump: a handful of prefixes stick
	// in Telstra's RIB (ghost-withdrawn downstream), and session resets
	// ~170 minutes after the withdrawal re-announce them to Telstra's
	// customers.
	telstraPrefixes := make(map[netip.Prefix]bool)
	telstraDays := []int{12, 14, 16, 17, 19, 21}
	if cfg.SlotStride > 2 {
		// With a thinned slot grid each fixed case weighs proportionally
		// more; keep the bump's relative size paper-like.
		telstraDays = telstraDays[:2]
	}
	for i, day := range telstraDays {
		ev, ok := slotAt(time.Date(2024, 6, day, 12, 0, 0, 0, time.UTC))
		if !ok || scripted[ev.Prefix] {
			continue
		}
		c := addCase(fmt.Sprintf("telstra%d", i), ev)
		telstraPrefixes[c.Prefix] = true
		for j := 0; j < 6; j++ {
			cust := bgp.ASN(65100 + j)
			if err := sim.ScheduleSessionReset(c.WithdrawAt.Add(168*time.Minute+time.Duration(j)*time.Second), AS4637, cust); err != nil {
				return nil, err
			}
		}
		if err := sim.ScheduleClearRoutes(c.WithdrawAt.Add(20*time.Hour), AS4637, matchOne(c.Prefix)); err != nil {
			return nil, err
		}
	}
	if len(telstraPrefixes) > 0 {
		faults.StickRIB(AS4637, func(p netip.Prefix) bool { return telstraPrefixes[p] })
	}

	// Case 5 — the 35–37 day cluster: prefixes stuck inside noisy
	// AS211509, resurrected to its customer AS207301 about a month after
	// the last beacon withdrawal, cleared ~36 days after withdrawal.
	clusterPrefixes := make(map[netip.Prefix]bool)
	resurrectAt := time.Date(2024, 7, 20, 12, 0, 0, 0, time.UTC)
	for i, day := range []int{19, 20, 21, 22} {
		ev, ok := slotAt(time.Date(2024, 6, day, 8, 0, 0, 0, time.UTC))
		if !ok || scripted[ev.Prefix] {
			continue
		}
		c := addCase(fmt.Sprintf("cluster%d", i), ev)
		clusterPrefixes[c.Prefix] = true
		clearAt := c.WithdrawAt.Add(time.Duration(35*24+rng.IntN(48))*time.Hour + time.Hour)
		if err := sim.ScheduleClearRoutes(clearAt, AS211509, matchOne(c.Prefix)); err != nil {
			return nil, err
		}
	}
	if len(clusterPrefixes) > 0 {
		faults.StickRIB(AS211509, func(p netip.Prefix) bool { return clusterPrefixes[p] })
		if err := sim.ScheduleSessionReset(resurrectAt, AS211509, AS207301); err != nil {
			return nil, err
		}
	}

	// Generic peers are partitioned so the long-lived scripted wedges do
	// not share links with the transient churn (whose session resets
	// would cure them early): peer 0 hosts the 85-day case, the last
	// third hosts the organic multi-day zombies, the middle the
	// transient ones.
	genericASNs := make([]bgp.ASN, 0, genericPeers)
	for i := 0; i < genericPeers; i++ {
		genericASNs = append(genericASNs, bgp.ASN(65200+i))
	}
	transientPool := genericASNs[1 : 1+(genericPeers-1)*2/3]
	organicPool := genericASNs[1+(genericPeers-1)*2/3:]

	// Case 6 — an ~85-day organic zombie for the Fig. 3 mid-tail.
	if ev, ok := slotAt(time.Date(2024, 6, 20, 4, 0, 0, 0, time.UTC)); !scripted[ev.Prefix] && ok {
		c := addCase("organic85", ev)
		peer := genericASNs[0]
		provider := g.AS(peer).Providers()[0]
		end := c.WithdrawAt.Add(85 * 24 * time.Hour)
		faults.WedgeLink(provider, peer, bgp.AFIIPv6, c.WithdrawAt.Add(-5*time.Minute), end, matchOne(c.Prefix))
		if err := sim.ScheduleSessionReset(end, provider, peer); err != nil {
			return nil, err
		}
	}

	// Noisy collector peers (Table 5).
	faults.DropCollectorWithdrawals(AS211509, noisy211509Prob, nil)
	faults.DropCollectorWithdrawals(AS211380, noisy211380Prob, nil)

	// Transient slow-convergence wedges: the Fig. 2 decay between 90 and
	// 180 minutes.
	for _, ev := range events {
		if !ev.Announce || scripted[ev.Prefix] {
			continue
		}
		if rng.Float64() >= transientWedgeProb {
			continue
		}
		peer := transientPool[rng.IntN(len(transientPool))]
		provider := g.AS(peer).Providers()[0]
		wd := ev.At.Add(beacon.SlotDuration)
		dur := 45*time.Minute + time.Duration(rng.Int64N(int64(100*time.Minute)))
		faults.WedgeLink(provider, peer, bgp.AFIIPv6, wd.Add(-2*time.Minute), wd.Add(dur), matchOne(ev.Prefix))
		if err := sim.ScheduleSessionReset(wd.Add(dur), provider, peer); err != nil {
			return nil, err
		}
	}
	// Organic multi-day zombies (Fig. 3 lower tail).
	for i := 0; i < organicLongWedges; i++ {
		at := approach2Start.Add(time.Duration(rng.Int64N(int64(cfg.Approach2End.Sub(approach2Start)))))
		ev, ok := slotAt(at)
		if !ok || scripted[ev.Prefix] {
			continue
		}
		scripted[ev.Prefix] = true
		peer := organicPool[rng.IntN(len(organicPool))]
		provider := g.AS(peer).Providers()[0]
		wd := ev.At.Add(beacon.SlotDuration)
		dur := time.Duration(2+rng.IntN(9)) * 24 * time.Hour
		faults.WedgeLink(provider, peer, bgp.AFIIPv6, wd.Add(-5*time.Minute), wd.Add(dur), matchOne(ev.Prefix))
		if err := sim.ScheduleSessionReset(wd.Add(dur), provider, peer); err != nil {
			return nil, err
		}
	}

	// The noisy peers' collector sessions flap every few weeks, clearing
	// frozen measurement-level zombies (their table replay restores only
	// routes the peer really still holds).
	for _, s := range sessions {
		if s.PeerAS != AS211509 && s.PeerAS != AS211380 {
			continue
		}
		const step = noisySessionResetEvery
		at := cfg.Approach1Start.Add(step/2 + time.Duration(rng.Int64N(int64(step))))
		for ; at.Before(cfg.TrackUntil); at = at.Add(step + time.Duration(rng.Int64N(int64(step/2)))) {
			if err := sim.ScheduleCollectorSessionReset(at, s); err != nil {
				return nil, err
			}
		}
	}

	// ROA removal: enforcing ASes revalidate shortly after.
	sim.ScheduleROARevalidation(roaRemoveAt)

	// Run, interleaving the 8-hourly RIB dumps.
	sim.EstablishCollectorSessions(cfg.Approach1Start.Add(-time.Hour))
	for t := cfg.Approach1Start.Truncate(dumpEvery).Add(dumpEvery); t.Before(cfg.TrackUntil); t = t.Add(dumpEvery) {
		sim.Run(t)
		fleet.SnapshotRIBs(t)
	}
	sim.RunAll()
	if err := fleet.Err(); err != nil {
		return nil, err
	}
	return &AuthorData{
		Updates:       fleet.UpdatesData(),
		Dumps:         fleet.DumpData(),
		Intervals:     intervals,
		Announcements: announcements,
		NoisyPeerAS:   map[bgp.ASN]bool{AS211509: true, AS211380: true},
		NoisyPeerAddr: map[netip.Addr]bool{
			noisyAddr211509v6: true,
			noisyAddr211509v4: true,
			noisyAddr211380:   true,
		},
		Graph:  g,
		Cases:  cases,
		Config: cfg,
	}, nil
}
