package netsim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/rpki"
	"zombiescope/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_golden.txt")

const simGoldenPath = "testdata/sim_golden.txt"

// ownerOf returns the simulator that owns p: the monolithic engine
// itself, or p's shard. Per-prefix generators with no Sharded wrapper run
// there.
func ownerOf(e engine, p netip.Prefix) *Simulator {
	switch v := e.(type) {
	case *Simulator:
		return v
	case *Sharded:
		return v.shardOf(p)
	}
	panic(fmt.Sprintf("ownerOf: unexpected engine %T", e))
}

func goldenGraph(t testing.TB) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultGenerateConfig(11)
	cfg.Tier1Count, cfg.Tier2Count, cfg.Tier3Count, cfg.StubCount = 4, 12, 24, 48
	cfg.Tier2PeerProb, cfg.Tier3PeerProb = 0.2, 0.05
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var goldenPrefixes = []netip.Prefix{
	netip.MustParsePrefix("2a0d:3dc1:1200::/48"),
	netip.MustParsePrefix("2a0d:3dc1:1201::/48"),
	netip.MustParsePrefix("2a0d:3dc1:1202::/48"),
	netip.MustParsePrefix("2a0d:3dc1:1203::/48"),
	netip.MustParsePrefix("84.205.64.0/24"),
	netip.MustParsePrefix("84.205.65.0/24"),
}

// goldenConfig turns on every timing mechanism and origin validation:
// twenty minutes in, the ROA for goldenPrefixes[2] moves to another
// origin, so the route becomes invalid.
func goldenConfig(g *topology.Graph) Config {
	reg := &rpki.Registry{}
	roa := rpki.ROA{Prefix: goldenPrefixes[2], MaxLength: 48, Origin: g.TierASNs(4)[0]}
	reg.Add(simStart.Add(-time.Hour), roa)
	reg.Remove(simStart.Add(20*time.Minute), roa)
	roa.Origin = 64499
	reg.Add(simStart.Add(20*time.Minute), roa)
	return Config{
		Seed: 5,
		ROA:  reg,
		MRAI: MRAIConfig{Interval: 30 * time.Second},
		RFD:  RFDConfig{Enabled: true},
	}
}

// setGoldenDamping gives every simulator of e the damping the golden
// pins: suppressed at 3000, 15-minute half-life, gentler than the
// shipped damping.
func setGoldenDamping(e engine) {
	d := rfdDamping{suppress: 3000, halfLife: 15 * time.Minute}
	switch v := e.(type) {
	case *Simulator:
		v.rfd = d
	case *Sharded:
		for _, s := range v.shards {
			s.rfd = d
		}
	}
}

// runGoldenScenario drives one fault-heavy scenario over goldenGraph and
// returns the merged collector stream. The actors are picked from the
// generated graph by tier and adjacency, so the scenario is fixed by the
// graph seed alone.
func runGoldenScenario(t testing.TB, g *topology.Graph, e engine) []sinkRecord {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tier1, tier2, stubs := g.TierASNs(1), g.TierASNs(2), g.TierASNs(4)
	origin := stubs[0]
	prov := g.AS(origin).Providers()[0]
	var wedged, victim bgp.ASN // two neighbors of prov other than origin
	for _, n := range g.AS(prov).Neighbors() {
		if n == origin {
			continue
		}
		if wedged == 0 {
			wedged = n
		} else if victim == 0 {
			victim = n
		}
	}

	rec := &recordSink{}
	e.SetSink(rec)
	sessions := []Session{
		{Collector: "rrc00", PeerAS: stubs[10], PeerIP: netip.MustParseAddr("2001:db8::10:1"), AFI: bgp.AFIIPv6},
		{Collector: "rrc00", PeerAS: stubs[10], PeerIP: netip.MustParseAddr("192.0.2.10")},
		{Collector: "rrc01", PeerAS: stubs[20], PeerIP: netip.MustParseAddr("192.0.2.20")},
		{Collector: "rrc01", PeerAS: tier2[3], PeerIP: netip.MustParseAddr("2001:db8::23:1"), AFI: bgp.AFIIPv6},
		{Collector: "rrc02", PeerAS: victim, PeerIP: netip.MustParseAddr("2001:db8::99:1"), AFI: bgp.AFIIPv6},
	}
	for _, sess := range sessions {
		must(e.AddCollectorSession(sess))
	}
	e.SetROVPolicy(tier1[0], rpki.ROVEnforce)
	e.SetROVPolicy(tier2[0], rpki.ROVNoEvict)
	e.SetROVPolicy(tier2[1], rpki.ROVEnforce)
	e.EstablishCollectorSessions(simStart.Add(-time.Hour))

	wd := simStart.Add(15 * time.Minute)
	for i, p := range goldenPrefixes {
		must(e.ScheduleAnnounce(simStart.Add(time.Duration(i)*10*time.Second), origin, p, &bgp.Aggregator{ASN: origin, Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})}))
	}
	for _, p := range []netip.Prefix{goldenPrefixes[0], goldenPrefixes[4], goldenPrefixes[5]} {
		must(e.ScheduleWithdraw(wd, origin, p))
	}
	// goldenPrefixes[3] flaps every two minutes: MRAI batching and, by
	// the third withdrawal, flap damping.
	for k := 1; k <= 5; k++ {
		at := simStart.Add(time.Duration(k) * 2 * time.Minute)
		must(e.ScheduleWithdraw(at, origin, goldenPrefixes[3]))
		must(e.ScheduleAnnounce(at.Add(time.Minute), origin, goldenPrefixes[3], nil))
	}

	f := e.Faults()
	f.WedgeLink(prov, wedged, 0, wd.Add(-time.Minute), wd.Add(3*time.Hour), MatchWithin(goldenPrefixes[0]))
	f.DropWithdrawalsDuring(tier1[0], tier1[1], 1, nil, wd, wd.Add(2*time.Minute))
	f.GlobalWithdrawalDrop(0.03, nil)
	f.DropCollectorWithdrawals(stubs[10], 0.5, nil)
	f.WedgeCollectorSessions(stubs[20], bgp.AFIIPv4, wd.Add(-time.Minute), wd.Add(time.Hour), nil)
	// prov keeps goldenPrefixes[4] after the withdrawal; the reset with
	// victim then re-announces it: a resurrection.
	f.StickRIB(prov, MatchWithin(goldenPrefixes[4]))
	must(e.ScheduleSessionReset(wd.Add(time.Hour), prov, victim))
	must(e.ScheduleCollectorSessionReset(wd.Add(70*time.Minute), sessions[0]))
	must(e.ScheduleClearRoutes(wd.Add(4*time.Hour), wedged, MatchWithin(goldenPrefixes[0])))
	e.ScheduleROARevalidation(simStart.Add(25 * time.Minute))

	must(ownerOf(e, goldenPrefixes[1]).ScheduleMOASFlip(simStart.Add(20*time.Minute), stubs[5], goldenPrefixes[1], 40*time.Minute))
	must(ownerOf(e, goldenPrefixes[2]).ScheduleCommunityStorm(tier2[3], goldenPrefixes[2], simStart.Add(5*time.Minute), simStart.Add(35*time.Minute), 3*time.Minute))
	subnets, err := HyperSpecificSubnets(netip.MustParsePrefix("2001:db8:100::/40"), 56, 4)
	must(err)
	for _, p := range subnets {
		must(e.ScheduleAnnounce(simStart.Add(30*time.Minute), stubs[7], p, nil))
		must(e.ScheduleWithdraw(simStart.Add(90*time.Minute), stubs[7], p))
	}

	e.Run(wd.Add(5 * time.Minute))
	e.Run(wd.Add(2 * time.Hour))
	e.RunAll()
	return rec.recs
}

// goldenLine renders one run as a golden line: the SHA-256 of the merged
// collector stream, its record count, and the activity counters.
func goldenLine(name string, recs []sinkRecord, st Stats) string {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%d %d %s %s %s %d %s", r.at.UnixNano(), r.kind, r.sess.Collector, r.sess.PeerAS, r.sess.PeerIP, r.sess.AFI, r.prefix)
		switch r.kind {
		case recAnnounce:
			fmt.Fprintf(h, " [%s] %v", r.attrs.Path, r.attrs.Communities)
			if a := r.attrs.Aggregator; a != nil {
				fmt.Fprintf(h, " agg %s %s", a.ASN, a.Addr)
			}
		case recState:
			fmt.Fprintf(h, " %d->%d", r.old, r.new)
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%s sha256=%x records=%d events=%d sent=%d dropped=%d collector_records=%d",
		name, h.Sum(nil), len(recs), st.Events, st.MessagesSent, st.MessagesDropped, st.CollectorRecords)
}

// TestSimulatorGolden pins the simulator's output bytes: the merged
// collector stream and Stats of one fault-heavy scenario, on the
// monolithic engine and on the sharded engine at 1 and 3 shards, run
// sequentially and in parallel. A layout or performance change to the
// simulator must leave every line unchanged; regenerate with -update only
// for an intended change of behaviour.
func TestSimulatorGolden(t *testing.T) {
	g := goldenGraph(t)
	mono := New(g, goldenConfig(g))
	setGoldenDamping(mono)
	lines := []string{goldenLine("monolithic", runGoldenScenario(t, g, mono), mono.Stats())}
	if st := mono.Stats(); st.MessagesDropped == 0 || st.CollectorRecords < 200 {
		t.Fatalf("scenario too quiet to pin anything: %+v", st)
	}
	for _, shards := range []int{1, 3} {
		var want string
		for _, parallel := range []bool{false, true} {
			sh := NewSharded(g, goldenConfig(g), shards)
			setGoldenDamping(sh)
			sh.Parallel = parallel
			got := goldenLine(fmt.Sprintf("sharded%d", shards), runGoldenScenario(t, g, sh), sh.Stats())
			if !parallel {
				want = got
				lines = append(lines, got)
			} else if got != want {
				t.Errorf("shards=%d: parallel run differs from sequential:\n got %s\nwant %s", shards, got, want)
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(simGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(simGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("simulator output moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
